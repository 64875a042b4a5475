(** Flow-trace generation: traffic patterns with Poisson arrivals. *)

open Ppt_engine

type spec = {
  id : int;
  src : int;
  dst : int;
  size : int;
  start : Units.time;
}

type pattern =
  | All_to_all of int array
  | Incast of { senders : int array; receiver : int }

val source :
  rng:Rng.t -> cdf:Cdf.t -> pattern:pattern -> edge_rate:Units.rate ->
  load:float -> unit -> unit -> spec
(** [source ~rng ... ()] is the flow generator: its i-th call returns
    flow [i], its start a Poisson arrival after the one before, so the
    calls come in start order. Deterministic in [rng]. The spec is the
    only allocation of a call. *)

val generate :
  rng:Rng.t -> cdf:Cdf.t -> pattern:pattern -> edge_rate:Units.rate ->
  load:float -> n_flows:int -> unit -> spec list
(** The first [n_flows] flows of {!source}, sorted by start time. *)

val cursor : spec list -> unit -> spec
(** [cursor specs] returns the specs one per call, in list order.
    @raise Invalid_argument when called past the last one. *)

val total_bytes : spec list -> int

val csv_header : string

val to_csv : spec list -> string
(** "id,src,dst,size_bytes,start_ns" with a header line. *)

val of_csv : string -> spec list
(** Parse and sort by start time, keeping file order among equal
    starts. Line 1 must be {!csv_header}. Flow ids of an n-flow file
    must be [0, n), each used once, as {!to_csv} writes them. Raises
    [Invalid_argument] naming the line on a missing header, malformed
    rows, non-positive sizes, self-flows, or ids that are out of range
    or repeated. *)
