(** Delay-based congestion control, conceptually equivalent to
    Swift [21] (fabric delay only, as in the paper's Fig. 14 variant). *)

open Ppt_engine

type view = {
  delay_below_target : unit -> bool;
  target : Units.time;
  rtt_hook : (unit -> unit) -> unit;
}

val attach : Context.t -> Reliable.t -> view
(** Drive the sender's window from fabric delay: target 1.5 base RTTs,
    additive increase of one segment per RTT below it, multiplicative
    decrease (gain 0.8, at most halving once per RTT) above it. *)

val make : unit -> Endpoint.factory
(** Swift over an IW10 sender. *)
