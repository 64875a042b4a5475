(** Fork-based parallel sweep runner.

    A sweep is an ordered list of independent work units, each a
    closure producing a marshalable value (no closures or custom
    blocks inside the result). [run ~jobs:n] executes them on [n]
    forked worker processes — each worker inherits the unit closures
    at fork time and receives unit indexes over a request pipe,
    streaming results back as length-prefixed marshalled frames — and
    reassembles the results in canonical input order, so the report is
    identical to a serial run of the same units.

    Robustness: a worker that dies (crash, OOM kill) or exceeds the
    per-unit [timeout] is reaped, its unit is re-queued for one more
    attempt on a fresh worker, and the sweep carries on; a unit that
    *returns* an exception is recorded as [Failed] without retry (it
    ran to completion — the failure is deterministic). With a
    [journal], completed units are recorded as they finish, and
    [resume = true] skips everything a previous (possibly killed)
    sweep already completed.

    [jobs <= 1] runs the units in-process, in order, with no forking —
    the serial reference an equality test can compare a parallel run
    against byte for byte. *)

type 'a unit_spec = {
  key : string;        (** canonical id, unique within the sweep *)
  run : unit -> 'a;
}

type 'a outcome =
  | Done of 'a
  | Failed of string   (** exception text, or the kill/timeout reason *)

type 'a shard = {
  s_key : string;
  s_outcome : 'a outcome;
  s_attempts : int;    (** 0 when restored from the journal *)
  s_cached : bool;     (** true = restored by [resume], not re-run *)
}

type 'a report = {
  shards : 'a shard list;  (** canonical input order *)
  r_resumed : int;         (** shards restored from the journal *)
}

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?journal:string ->
  ?resume:bool ->
  ?progress:(string -> unit) ->
  'a unit_spec list -> 'a report
(** [run specs] executes the sweep and returns its report.

    [jobs] — worker processes (default 1 = in-process serial).
    [timeout] — per-unit seconds before the worker is killed and the
    unit re-queued (default: none).
    [journal] — journal path; enables [resume].
    [resume] — reuse a matching journal's completed entries
    (default false).
    [progress] — called with each unit key as it completes.

    Raises [Invalid_argument] on duplicate unit keys. *)
