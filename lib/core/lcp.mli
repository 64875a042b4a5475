(** The low-priority control loop (LCP): PPT's dual-loop rate control
    (§3 of the paper).

    Attach to a {!Ppt_transport.Reliable.t} sender whose primary loop
    is presented as a {!Ppt_transport.Dctcp.view} (DCTCP itself, or
    Swift/HPCC through PPT's window view); the LCP then
    opportunistically transmits tail segments
    ({!Ppt_transport.Reliable.send_tail}) at low priority to fill the
    spare bandwidth, with intermittent loop initialization (§3.1) and
    exponential window decreasing (§3.2). A loop terminates after 2
    RTTs without low-priority ACKs, and the case-1 loop of an
    identified-large flow opens one RTT late so small flows own the
    first RTT. *)

open Ppt_transport

type t

val create :
  Context.t -> Reliable.t -> Dctcp.view -> ?ewd:bool ->
  identified_large:bool -> unit -> t
(** [ewd:false] is the Fig. 16 ablation: line-rate opportunistic
    bursts with no per-RTT rate halving. *)

val start : t -> unit
(** Install the sender/HCP-view hooks and schedule the case-1 loop. *)

val shutdown : t -> unit
(** Cancel all timers; the loop never reopens. *)

val is_open : t -> bool
val loops_opened : t -> int

val case1_window : t -> int
(** Case-1 initial window: BDP - current congestion window. *)

val case2_window : t -> alpha:float -> int
(** Case-2 initial window (Eq. 2): [(1/2 - alpha) * W_max]. *)

val on_rtt_boundary : t -> unit
(** Exposed for tests: the per-RTT case-2 trigger. *)

val pace_interval : rtt:int -> sent:int -> window:int -> int
(** EWD pacer gap: [rtt * sent / window] rounded to nearest (never
    below 1 tick), so a window paces out over one whole RTT instead of
    systematically early under truncation. *)
