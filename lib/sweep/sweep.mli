(** Fork-based parallel sweep runner.

    A sweep is an ordered list of independent work units, each a
    closure producing a marshalable value (no closures or custom
    blocks inside the result). [run ~jobs:n ~dir] runs each unit in a
    child process of its own, forked when a slot frees up, at most [n]
    at once. A child writes its unit's outcome to one result file in
    [dir] and exits; the parent only waits for children. The report
    lists the shards in canonical input order, so whatever renders
    them renders the same bytes as a serial run of the same units.

    A result file is [dir/<hex digest of the key>]: a header line
    (magic and format version), the key, the payload's hex digest,
    then the marshalled [Ok v] or [Error exception_text]. The child
    writes it under a temporary name and renames it, so the file
    appears whole or not at all. The parent keeps no outcome in
    memory: [Done read] reads the value back from its file.

    Robustness: a child that dies (crash, OOM kill), exceeds the
    per-unit [timeout] (an interval timer the child arms on itself)
    or exits without its file is re-run once in a fresh child, and the
    sweep carries on; a unit that *raises* is [Failed] without retry
    (it ran to completion, so the failure is deterministic).
    [resume = true] reuses every intact [Ok] file [dir] already holds,
    so a sweep killed mid-run picks up where it stopped.

    [jobs <= 1] runs the units in-process, in order, with no forking
    (the serial reference a parallel run must match byte for byte);
    it writes the same files. *)

type 'a unit_spec = {
  key : string;        (** canonical id, unique within the sweep *)
  run : unit -> 'a;
}

type 'a outcome =
  | Done of (unit -> 'a)
      (** reads the value from the shard's result file, afresh on
          every call *)
  | Failed of string   (** exception text, or the kill/timeout reason *)

type 'a shard = {
  s_key : string;
  s_outcome : 'a outcome;
  s_attempts : int;    (** 0 when reused by [resume] *)
  s_cached : bool;     (** true = reused by [resume], not re-run *)
}

type 'a report = {
  shards : 'a shard list;  (** canonical input order *)
  r_resumed : int;         (** shards reused by [resume] *)
}

val run :
  ?jobs:int ->
  ?timeout:float ->
  dir:string ->
  ?resume:bool ->
  ?progress:(string -> unit) ->
  'a unit_spec list -> 'a report
(** [run ~dir specs] executes the sweep and returns its report.

    [jobs] — child processes at once (default 1 = in-process serial).
    [timeout] — per-unit seconds before the child is killed and the
    unit re-run (default: none); only a forked child can be timed, so
    it needs [jobs > 1].
    [dir] — the sweep's result files; created if missing, and emptied
    first unless [resume].
    [resume] — reuse the intact [Ok] files [dir] holds for these keys
    (default false); a file with a bad digest, another format version
    or another key is re-run.
    [progress] — called with each unit key as it completes.

    Raises [Invalid_argument] on duplicate unit keys, or on a
    [timeout] with [jobs <= 1]. *)
