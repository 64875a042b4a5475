(** Periodic time-series sampling (link utilization, buffer occupancy). *)

open Ppt_engine

type sample = { at : Units.time; value : float }
type t

val create : unit -> t
val record : t -> at:Units.time -> float -> unit
val samples : t -> sample list
val count : t -> int
val values : t -> float list
val mean : t -> float

val sample_every :
  Sim.t -> start:Units.time -> interval:Units.time -> until:Units.time ->
  (unit -> float) -> t
(** Evaluate a probe every [interval]; samples land in the returned
    series as the simulation runs. *)

val utilization_probe :
  rate:Units.rate -> interval:Units.time -> (unit -> int) -> unit -> float
(** Turn a cumulative tx-bytes counter into per-interval utilization. *)
