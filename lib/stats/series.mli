(** Periodic time-series sampling (link utilization, buffer occupancy). *)

open Ppt_engine

type sample = { at : Units.time; value : float }
type t

val create : unit -> t
val record : t -> at:Units.time -> float -> unit
val samples : t -> sample list
val values : t -> float list
val mean : t -> float

val utilization_probe :
  rate:Units.rate -> interval:Units.time -> (unit -> int) -> unit -> float
(** Turn a cumulative tx-bytes counter into per-interval utilization. *)
