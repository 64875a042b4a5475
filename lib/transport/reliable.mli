(** Window-based reliable sender core.

    Sequence/SACK bookkeeping, duplicate-ACK fast retransmit with
    NewReno-style recovery, retransmission timeouts with backoff, a
    send-buffer availability window and the congestion-window gate.
    Congestion-control *policy* is injected through the mutable hook
    fields, so DCTCP, TCP, Swift, HPCC and PPT's HCP share this
    machinery; a second low-priority loop (PPT's LCP, RC3's low loops,
    the hypothetical DCTCP's fill) transmits tail segments through
    {!send_tail}. *)

open Ppt_engine
open Ppt_netsim

(** One scratch record per sender, refilled in place for every ack so
    the ack path allocates nothing. Borrowed: hooks may read it during
    the synchronous call but must not retain it. *)
type ack_info = {
  mutable ai_cum : int;             (** in-order segments confirmed *)
  mutable ai_sacks : int list;
  mutable ai_ece : bool;            (** congestion-experienced echo *)
  mutable ai_data_tx : Units.time;  (** echoed data-packet send time *)
  mutable ai_tel : Packet.t;
  (** The ack packet carrying the echoed inband telemetry (read it with
      [Packet.tel_count] / [Packet.tel_qlen] …). Borrowed: valid only
      during the synchronous hook call — the fabric releases the packet
      when the delivery handler returns. *)
  mutable ai_newly_acked : int;     (** fresh primary-loop bytes *)
  mutable ai_cum_advanced : bool;
}

(** Per-segment states (as stored in the scoreboard). *)

val st_sacked : char

type params = {
  initial_cwnd : int;
  ecn_capable : bool;
  lcp_ecn_capable : bool;
  sendbuf_bytes : int;
  tagger : bytes_sent:int -> loop:Packet.loop -> int;
}

val default_params :
  ?initial_cwnd:int -> ?ecn_capable:bool -> ?lcp_ecn_capable:bool ->
  ?sendbuf_bytes:int ->
  ?tagger:(bytes_sent:int -> loop:Packet.loop -> int) -> unit -> params
(** IW 10 segments, ECN on, unlimited send buffer, priority 0. *)

type t = {
  ctx : Context.t;
  flow : Flow.t;
  p : params;
  mss : int;
  seg : Bytes.t;
  mutable cwnd : float;
  mutable snd_nxt : int;
  mutable cum_ack : int;
  mutable sacked_cnt : int;
  mutable inflight : int;
  mutable l_inflight_segs : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recovery_end : int;
  retx : int Queue.t;
  mutable rto_backoff : int;
  mutable rto_timer : Sim.timer option;
  mutable rto_fire : unit -> unit;
  (** Preallocated RTO callback; installed by {!create}. *)
  mutable win_end : int;
  mutable win_acked : int;
  mutable win_marked : int;
  mutable bytes_sent : int;
  mutable tail : int;
  (** Low-priority tail cursor: {!send_tail} picks strictly below it. *)
  mutable tail_hi : int;
  (** The send-buffer horizon the cursor was last restarted from. *)
  mutable shut : bool;
  scratch_ai : ack_info;
  (** Reused by [on_ack]; see {!ack_info}. *)
  mutable hook_on_ack : t -> ack_info -> unit;
  (** per-ACK congestion-control hook (growth, delay/INT reaction) *)
  mutable hook_on_window : t -> f:float -> unit;
  (** once per observation window, with the marked-byte fraction *)
  mutable hook_on_loss : t -> unit;
  (** entering fast-retransmit recovery *)
  mutable hook_on_timeout : t -> unit;
  mutable hook_on_lcp_ack : t -> ack_info -> unit;
  (** a low-priority ACK arrived (after scoreboard bookkeeping) *)
}

val create : Context.t -> Flow.t -> params -> t
val start : t -> unit

val cwnd : t -> float
val set_cwnd : t -> float -> unit
(** Clamped to at least one [mss]. *)

val mss : t -> int
val inflight : t -> int
val l_inflight_segs : t -> int
(** Low-priority-loop segments transmitted and not yet acknowledged. *)

val bytes_sent : t -> int
val flow : t -> Flow.t
val ctx : t -> Context.t
val seg_state : t -> int -> char

val on_ack : t -> Packet.t -> unit

val send_lcp_segment : ?prio:int -> t -> int -> unit
(** Transmit one given segment on the low-priority loop (Halfback's
    replay); a no-op once it is acknowledged or the sender is shut. *)

val send_tail : ?prio:int -> t -> int
(** Transmit, on the low-priority loop, the highest untransmitted
    segment below the previous pick, within the send buffer and at or
    above [snd_nxt]. Returns its payload, or 0 once the two loops have
    met. When the send-buffer horizon grows the cursor restarts from
    it. [prio] overrides the tagger's priority. *)

val shutdown : t -> unit
(** Stop all transmission and cancel timers. *)
