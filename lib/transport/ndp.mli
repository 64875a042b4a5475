(** NDP [15]: first-window blast (one BDP), switch payload trimming,
    NACK-based loss notification and receiver pull pacing. Run on a
    fabric whose queue discipline has [trim] enabled. *)

val make : unit -> Endpoint.factory
