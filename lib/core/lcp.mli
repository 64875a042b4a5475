(** The low-priority control loop (LCP): PPT's dual-loop rate control
    (§3 of the paper).

    The LCP rides on a {!Ppt_transport.Reliable.t} sender: its state
    is the sender's [ext], and {!policy} adds its callbacks to the
    primary loop's policy (DCTCP itself, or Swift/HPCC presented
    through the same [alpha], [in_ca] and [cc.wmax]). It
    opportunistically transmits tail segments
    ({!Ppt_transport.Reliable.send_tail}) at low priority to fill the
    spare bandwidth, with intermittent loop initialization (§3.1) and
    exponential window decreasing (§3.2). A loop terminates after 2
    RTTs without low-priority ACKs, and the case-1 loop of a flow
    identified as large ({!Ppt_transport.Flow.t.identified_large})
    opens one RTT late so small flows own the first RTT. *)

open Ppt_transport

type t

val create : ewd:bool -> t
(** A flow's LCP state, closed. [ewd:false] is the Fig. 16 ablation:
    line-rate opportunistic bursts with no per-RTT rate halving. *)

val policy : t Reliable.policy -> t Reliable.policy
(** [policy base] is [base] with the LCP added: [init] arms the
    case-1 loop, each observation window may open a case-2 loop,
    low-priority ACKs clock the open loop, and [release] cancels its
    timers (the loop never reopens). [base]'s own [init] and [release]
    are replaced. Build it once per transport. *)

val is_open : t -> bool
val loops_opened : t -> int

val case1_window : t Reliable.t -> int
(** Case-1 initial window: BDP - current congestion window. *)

