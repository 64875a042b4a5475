(** PIAS [9]: DCTCP rate control with multi-level-feedback priority
    demotion by bytes sent (no a-priori size information). *)

val prio_of : bytes_sent:int -> int
(** The priority after [bytes_sent] bytes: one level down at each of
    10KB, 30KB, 100KB, 300KB, 1MB, 3MB and 10MB. *)

val make : unit -> Endpoint.factory
(** IW10 DCTCP with the demotion ladder of {!prio_of}. *)
