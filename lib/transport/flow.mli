(** A flow: one application message between two hosts, segmented into
    MTU-sized packets, with counters shared by its two endpoints, the
    receiver's scoreboard and grant, kept here for every transport, and
    the teardown its transport sets. Only the receiver reads the
    scoreboard and the grant: a sender learns the receiver's progress
    from the wire alone (acks, grants, pulls, credits). A flow's
    segments go out through {!Context.send_data}, and it finishes
    through {!Context.flow_finished}, which runs [teardown] once. *)

open Ppt_engine
open Ppt_netsim

type t = {
  id : int;
  src : int;
  dst : int;
  size : int;
  nseg : int;
  start : Units.time;
  mutable retrans : int;
  mutable hcp_payload : int;
  mutable lcp_payload : int;
  mutable hcp_delivered : int;  (** fresh payload accepted, primary loop *)
  mutable lcp_delivered : int;  (** ... by a low-priority loop *)
  bitmap : Bytes.t;             (** one byte per segment, ['\001'] = held *)
  mutable held : int;           (** distinct segments held *)
  mutable cum : int;            (** first segment not yet held *)
  mutable finished : Units.time option;  (** the one "done" flag *)
  mutable granted : int;
  (** Segments the receiver has let the sender send (Homa's grants,
      ExpressPass's credits); 0 until a receiver-driven transport sets
      it. *)
  mutable identified_large : bool;
  (** PPT's buffer-aware identification (§4.1) found the flow large at
      its first write; [false] until a transport sets it. The sender's
      tagger reads it. *)
  mutable teardown : unit -> unit;
  (** Set by the transport: stops the flow's endpoints and cancels
      their timers. {!Context.flow_finished} runs it once, before
      unregistering the flow's handlers. *)
}

val create :
  id:int -> src:int -> dst:int -> size:int -> start:Units.time -> t
(** Raises [Invalid_argument] on a non-positive size or [src = dst]. *)

val of_spec : Ppt_workload.Trace.spec -> t
val seg_payload : t -> int -> int
(** [seg_payload t seq]: the payload of segment [seq], [max_payload]
    for all but a shorter final one. *)

val accept : t -> Packet.t -> unit
(** Record a data segment at the receiver: ignores duplicates and
    out-of-range sequence numbers, advances [cum] past every held
    segment and credits the fresh payload to [hcp_delivered] or
    [lcp_delivered] by the packet's loop. *)

val complete : t -> bool
(** Every segment is held. *)

val is_finished : t -> bool
