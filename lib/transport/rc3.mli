(** RC3 [30]: a DCTCP primary loop plus open-loop low-priority
    transmission of the whole remaining flow from the tail, in
    exponentially growing priority tiers. *)

val lp_prio : int -> int
(** Priority of the [n]-th low-priority packet counted from the tail:
    the last 40 at P4, the next 1600 at P5, the next 64000 at P6, the
    rest at P7. *)

val make : unit -> Endpoint.factory
(** IW10 DCTCP primary loop with the recommended 2GB send buffer. *)
