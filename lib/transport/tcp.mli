(** Loss-based TCP (NewReno-style growth/backoff, no ECN), and the
    TCP-10 [12] initial-window-of-10 variant from Table 1. *)

val policy : 'x Reliable.policy
val make : ?iw_segs:int -> unit -> Endpoint.factory
val make_tcp10 : unit -> Endpoint.factory
