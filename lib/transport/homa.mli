(** Homa [32] (receiver-driven grants, SRPT, overcommitment) and its
    Aeolus [17] variant (lowest-priority selectively-dropped
    unscheduled packets with fast recovery). RTTbytes is the context
    BDP. *)

val overcommit : int
(** Grants go to this many shortest-remaining messages per receiver
    (2). *)

val make : unit -> Endpoint.factory
val make_aeolus : unit -> Endpoint.factory
