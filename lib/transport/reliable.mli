(** Window-based reliable sender core.

    Sequence/SACK bookkeeping, duplicate-ACK fast retransmit with
    NewReno-style recovery, retransmission timeouts with backoff, a
    send-buffer availability window and the congestion-window gate.
    Congestion control is a {!policy} chosen once per transport, so
    DCTCP, TCP, Swift, HPCC and PPT's HCP share this machinery; a
    second low-priority loop (PPT's LCP, RC3's low loops, the
    hypothetical DCTCP's fill) transmits tail segments through
    {!send_tail}. *)

open Ppt_engine
open Ppt_netsim

(** Per-segment states (as stored in the scoreboard). *)

val st_sacked : char

type params = {
  initial_cwnd : int;
  ecn_capable : bool;
  lcp_ecn_capable : bool;
  sendbuf_bytes : int;
  tagger : large:bool -> bytes_sent:int -> loop:Packet.loop -> int;
  (** A data packet's priority, from whether the flow was identified
      large ({!Flow.t.identified_large}), its loop and the payload the
      flow has sent before it on both loops. *)
}

val default_params :
  ?initial_cwnd:int -> ?ecn_capable:bool -> ?lcp_ecn_capable:bool ->
  ?sendbuf_bytes:int ->
  ?tagger:(large:bool -> bytes_sent:int -> loop:Packet.loop -> int) ->
  unit -> params
(** IW 10 segments, ECN on, unlimited send buffer, priority 0. *)

(** The controller's float state, stored flat (every field is a float),
    so a window update is a plain store that allocates nothing. Each
    controller reads and writes the fields it uses. *)
type cc = {
  mutable cwnd : float;      (** bytes; store it, then {!commit_cwnd} *)
  mutable ssthresh : float;  (** slow-start threshold; [infinity] at first *)
  mutable alpha : float;     (** DCTCP's ECN-fraction estimate, 1.0 at first *)
  mutable wmax : float;      (** largest window seen (W_max of Eq. 2) *)
  mutable w_ref : float;     (** HPCC's reference window *)
}

type 'x t = {
  ctx : Context.t;
  flow : Flow.t;
  p : params;
  mss : int;
  seg : Bytes.t;
  cc : cc;
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
  mutable rto_fire : unit -> unit;
  (** The RTO callback, allocated once by {!create}. *)
  mutable rto_ticket : int;
  (** The armed RTO's {!Ppt_engine.Sim.schedule} ticket, or [-1]. *)
  mutable win_end : int;
  mutable win_acked : int;
  mutable win_marked : int;
  mutable tail : int;
  (** Low-priority tail cursor: {!send_tail} picks strictly below it. *)
  mutable tail_hi : int;
  (** The send-buffer horizon the cursor was last restarted from. *)
  mutable shut : bool;
  (** Set by {!shutdown}, before the policy's [release]: the flow's one
      stop flag, which a transport's own timers test too. *)
  mutable cwr : bool;
  (** DCTCP: the window has already been cut in this observation
      window. *)
  mutable windows : int;
  (** Observation windows closed so far (PPT's phase over Swift and
      HPCC). *)
  mutable epoch : Units.time;
  (** When the controller last took its once-per-RTT step (Swift's
      decrease, HPCC's W_ref refresh). *)
  mutable delay : Units.time;
  (** Swift: the last fabric delay measured. *)
  mutable hops : int array;
  (** HPCC: each hop's previous telemetry sample, three ints a hop;
      empty until the first telemetry arrives. *)
  policy : 'x policy;
  ext : 'x;
  (** The transport's own per-flow state (PPT's LCP), or [()]. *)
}

(** A congestion-control policy: plain functions chosen once per
    transport, like Linux's [tcp_congestion_ops]. The sender calls
    them; they act on its {!cc} record, int fields and [ext]. *)
and 'x policy = {
  init : 'x t -> unit;
  (** At the end of {!create}: schedule the transport's own timers. *)
  on_ack : 'x t -> Packet.t -> newly:int -> unit;
  (** Per primary-loop ACK (growth, delay/INT reaction), with the
      fresh primary-loop bytes it confirmed. The packet is the ACK
      (read it with {!Wire}); it is released when the delivery
      handler returns, so do not retain it. *)
  on_window : 'x t -> marked:int -> acked:int -> unit;
  (** Once per observation window, with its ECN-marked and acked
      bytes. *)
  on_loss : 'x t -> unit;
  (** Entering fast-retransmit recovery. *)
  on_timeout : 'x t -> unit;
  on_lcp_ack : 'x t -> Packet.t -> unit;
  (** A low-priority ACK arrived (after scoreboard bookkeeping). *)
  alpha : 'x t -> float;
  (** The congestion estimate PPT's LCP reads: DCTCP's alpha, or 0
      while a delay or INT loop sees spare capacity and 1 otherwise. *)
  in_ca : 'x t -> bool;
  (** Past the startup (slow-start) phase. *)
  release : 'x t -> unit;
  (** At {!shutdown}: cancel the transport's own timers. *)
}

val default_policy : 'x policy
(** No growth: halve on loss, one segment on timeout; [alpha] reads
    [cc.alpha] and [in_ca] holds once [cc.ssthresh] is finite. Build a
    policy as [{ default_policy with ... }]. *)

val create : Context.t -> Flow.t -> params -> 'x policy -> 'x -> 'x t
(** A sender with the policy's state, then the policy's [init]. *)

val start : 'x t -> unit

val cwnd : 'x t -> float
val commit_cwnd : 'x t -> unit
(** Apply the window a policy just stored in [cc.cwnd]: floor it at one
    [mss] and trace it. The window is not an argument, so a call the
    compiler does not inline boxes nothing. *)

val mss : 'x t -> int
val inflight : 'x t -> int
val l_inflight_segs : 'x t -> int
(** Low-priority-loop segments transmitted and not yet acknowledged. *)

val flow : 'x t -> Flow.t
val seg_state : 'x t -> int -> char

val on_ack : 'x t -> Packet.t -> unit

val send_lcp_segment : ?prio:int -> 'x t -> int -> unit
(** Transmit one given segment on the low-priority loop (Halfback's
    replay); a no-op once it is acknowledged or the sender is shut. *)

val pace_interval : rtt:int -> sent:int -> window:int -> int
(** The gap between paced low-priority segments (PPT's EWD, the
    hypothetical DCTCP's fill): [rtt * sent / window] rounded to
    nearest, never below 1 tick, so a window spans one whole RTT. *)

val send_tail : ?prio:int -> 'x t -> int
(** Transmit, on the low-priority loop, the highest untransmitted
    segment below the previous pick, within the send buffer and at or
    above [snd_nxt]. Returns its payload, or 0 once the two loops have
    met. When the send-buffer horizon grows the cursor restarts from
    it. [prio] overrides the tagger's priority. *)

val shutdown : 'x t -> unit
(** Stop all transmission, cancel the RTO and run the policy's
    [release]. *)

val rto_armed : 'x t -> bool
(** Whether a retransmission timeout is pending. *)
