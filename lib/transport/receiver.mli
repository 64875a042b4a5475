(** Generic receiver endpoint for window-based transports.

    Tracks received segments, acknowledges every primary-loop data
    packet at P0 (cumulative + SACK + CE echo + timestamp + telemetry
    echo), batches low-priority-loop ACKs at the echoed priority (PPT's
    2:1 EWD clocking), and fires a completion callback once the whole
    flow has arrived. *)

open Ppt_netsim

type t = {
  ctx : Context.t;
  flow : Flow.t;
  lcp_batch : int;          (** LCP data packets per low-priority ACK *)
  bitmap : Bytes.t;
  mutable received : int;
  mutable cum : int;
  mutable lcp_pending : int;
  mutable lcp_sack0 : int;  (** latest unacked LCP segment, or {!Wire.no_sack} *)
  mutable lcp_sack1 : int;  (** the one before it, or {!Wire.no_sack} *)
  mutable lcp_ece : bool;
  mutable lcp_last_prio : int;
  mutable done_fired : bool;
  mutable on_done : unit -> unit;
}

val create : ?lcp_batch:int -> Context.t -> Flow.t -> t
(** [lcp_batch] defaults to 1: one low-priority ACK per LCP packet.
    An ack holds at most two SACKs, so it must be 1 or 2.
    @raise Invalid_argument otherwise. *)

val complete : t -> bool
val received : t -> int
val cum : t -> int
val on_data : t -> Packet.t -> unit
