(** Delay-based congestion control, conceptually equivalent to
    Swift [21] (fabric delay only, as in the paper's Fig. 14 variant). *)

val policy : 'x Reliable.policy
(** Drive the sender's window from fabric delay: target 1.5 base RTTs,
    additive increase of one segment per RTT below it, multiplicative
    decrease (gain 0.8, at most halving once per RTT) above it. *)

val spare : 'x Reliable.t -> bool
(** The last measured delay is below the target: the spare-capacity
    signal of PPT over Swift. *)

val make : unit -> Endpoint.factory
(** Swift over an IW10 sender. *)
