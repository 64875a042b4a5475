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
    surrounding order statistics (in [Float.compare] order, the result
    of a sort); [nan] when empty. Every percentile this module reports
    (FCT and slowdown alike) is computed this way, in one pass that
    keeps only the largest [ceil ((1 - p/100) * n) + 2] values in a
    heap, [n] being the count known before the pass: the list's length
    here, {!count} for the record folds.
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

val cutoff : int
(** 100KB, the paper's small/large boundary (Table 2): small flows are
    those up to it, large ones above it. The one copy: [summarize],
    the tables and figures and [ppt_sim run] all read it. *)

val summarize : t -> summary
(** One pass over the records. It allocates the p99 heap, a float array
    of about [count / 100 + 2] elements (103 for 10,000 records), and
    the result, and nothing per record. *)

val slowdown : rate:Units.rate -> base_rtt:Units.time -> record -> float
(** Completion time over [Units.tx_time ~rate ~bytes:size + base_rtt]:
    the payload's serialization at [rate] plus [base_rtt]. It is not a
    lower bound on the flow's FCT (FCT ends one way, and not every flow
    crosses every link the base RTT counts), so a flow can read below
    1; ROADMAP item 11 has the exact idle FCT that should replace it. *)

val slowdown_stats :
  ?lo:int -> ?hi:int -> rate:Units.rate -> base_rtt:Units.time -> t ->
  float * float
(** (mean, p99) slowdown of the filtered flows; NaNs when empty. Like
    {!summarize}, it allocates the p99 heap and the result. *)

val jain_fairness : t -> float
(** Jain's index over per-flow average throughput; 1.0 is fair. *)
