(** PIAS [9]: DCTCP rate control with multi-level-feedback priority
    demotion by bytes sent (no a-priori size information). *)

val crossed : int array -> bytes_sent:int -> int
(** How many of the ascending [thresholds] [bytes_sent] has reached:
    the demotion level of a multi-level-feedback ladder. Allocates
    nothing; PPT's tagging ages unidentified flows with it too. *)

val prio_of : bytes_sent:int -> int
(** The priority after [bytes_sent] bytes: one level down at each of
    10KB, 30KB, 100KB, 300KB, 1MB, 3MB and 10MB. *)

val make : unit -> Endpoint.factory
(** IW10 DCTCP with the demotion ladder of {!prio_of}. *)
