(** Empirical flow-size distributions as piecewise-linear CDFs. *)

type t

val create : (float * float) list -> t
(** [(size_bytes, cum_prob)] points; probability rises from 0 to 1.
    Raises [Invalid_argument] on malformed input. *)

val mean : t -> float
(** Mean flow size under uniform-within-segment interpolation. *)

val fraction_below : t -> int -> float
(** Probability that a sampled flow is at most the given size. *)

val sample : t -> Ppt_engine.Rng.t -> int
(** Inverse-CDF sample, at least 1 byte. *)

val max_size : t -> int
