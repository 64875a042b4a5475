(** Buffer-aware large-flow identification (§4.1 of the paper):
    a flow is large when its first system call injects more than the
    threshold into the send buffer. *)

type t

val make : ?threshold:int -> ?model:Sendbuf.model -> unit -> t
(** [threshold] defaults to 100KB (Table 3). *)

val identify : t -> Ppt_engine.Rng.t -> flow_size:int -> bool
