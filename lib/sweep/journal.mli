(** The shard journal: a crash-tolerant append-only record of
    completed sweep units, enabling [--resume].

    The file starts with a header naming every unit key of the sweep
    (in canonical order); each subsequent entry records one completed
    unit as [(key, payload)]. Entries are length-prefixed
    marshalled frames, each with its payload's digest, so a journal
    cut mid-write by a killed sweep loses at most its unflushed tail,
    and a damaged frame ends the journal there — every complete entry
    before the damage is recovered, and no damaged one is read. *)

type t

val open_ :
  path:string -> keys:string list -> resume:bool ->
  t * (string * 'a) list
(** Open the journal at [path] for a sweep over [keys].

    With [resume = true] and an existing journal whose header matches
    [keys] exactly, returns every recoverable completed entry (later
    duplicates of a key win) and appends further completions after
    them. In every other case the journal is truncated and started
    fresh, returning no entries.

    The payload type ['a] must match what was appended — the journal
    is only ever read back by the sweep that wrote it (same binary,
    same unit list). *)

val append : t -> key:string -> 'a -> unit
(** Record one completed unit and flush, so the entry survives a kill
    of the sweep process. *)

val close : t -> unit
