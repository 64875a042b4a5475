(** Flow-completion-time statistics with the paper's size bins. *)

open Ppt_engine

type record = {
  flow : int;
  size : int;
  start : Units.time;
  finish : Units.time;
  retrans : int;
  hcp_payload : int;
  lcp_payload : int;
  hcp_delivered : int;
  lcp_delivered : int;
}

val fct_ms : record -> float

type t

val create : unit -> t
val add : t -> record -> unit
val count : t -> int
val records : t -> record list
(** Every record added, newest first. *)

val hcp_delivered : t -> int
val lcp_delivered : t -> int
(** Fresh payload bytes accepted at the receivers, summed over every
    record, by the loop that sent them. *)

val avg : ?lo:int -> ?hi:int -> t -> float
(** Average FCT (ms) of flows with [lo] < size <= [hi]; [nan] if none. *)

val percentile : ?lo:int -> ?hi:int -> t -> float -> float
(** Interpolated percentile (ms) of the same filter.
    @raise Invalid_argument unless [0 <= p <= 100]. *)

val percentile_of_values : float -> float list -> float
(** [percentile_of_values p xs]: interpolating percentile over a raw
    float sample — rank [p/100 * (n-1)], linear between the
    surrounding order statistics; [nan] when empty. Every percentile
    this module reports (FCT and slowdown alike) is computed this way.
    @raise Invalid_argument unless [0 <= p <= 100] (so also on NaN). *)

type summary = {
  flows : int;
  overall_avg : float;
  small_avg : float;
  small_p99 : float;
  large_avg : float;
  total_retrans : int;
  hcp_bytes : int;
  lcp_bytes : int;
}

val summarize : t -> summary
(** Small flows are those up to 100KB, the paper's small/large
    boundary. One pass over the records; it allocates a float array of
    {!count} elements for the p99 sample and nothing per record. *)

val slowdown : rate:Units.rate -> base_rtt:Units.time -> record -> float
(** Normalized FCT: completion time over the ideal unloaded time. *)

val slowdown_stats :
  ?lo:int -> ?hi:int -> rate:Units.rate -> base_rtt:Units.time -> t ->
  float * float
(** (mean, p99) slowdown of the filtered flows; NaNs when empty. *)

val jain_fairness : t -> float
(** Jain's index over per-flow average throughput; 1.0 is fair. *)
