(** Deterministic seeded PRNG (splitmix64) with independent substreams. *)

type t

val create : int -> t
val split : t -> t
(** Derive an independent stream; advancing one never perturbs the other. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** Uniform in [0, bound); [bound] must be positive. *)

val exponential : t -> mean:float -> float
(** Exponential variate with the given positive mean. *)
