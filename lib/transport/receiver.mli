(** Generic receiver endpoint for window-based transports.

    Records each data segment on the flow's scoreboard
    ({!Flow.accept}), acknowledges every primary-loop data packet at P0
    (cumulative + SACK + CE echo + timestamp + telemetry echo), batches
    low-priority-loop ACKs at the echoed priority (PPT's 2:1 EWD
    clocking), and, once the whole flow has arrived, finishes it
    ({!Context.flow_finished}). *)

open Ppt_netsim

type t = {
  ctx : Context.t;
  flow : Flow.t;
  lcp_batch : int;          (** LCP data packets per low-priority ACK *)
  mutable lcp_pending : int;
  mutable lcp_sack0 : int;  (** latest unacked LCP segment, or {!Wire.no_sack} *)
  mutable lcp_sack1 : int;  (** the one before it, or {!Wire.no_sack} *)
  mutable lcp_ece : bool;
  mutable lcp_last_prio : int;
}

val create : ?lcp_batch:int -> Context.t -> Flow.t -> t
(** [lcp_batch] defaults to 1: one low-priority ACK per LCP packet.
    An ack holds at most two SACKs, so it must be 1 or 2.
    @raise Invalid_argument otherwise. *)

val on_data : t -> Packet.t -> unit
