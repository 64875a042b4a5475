(** The trace sink: where instrumented code sends {!Event.t}s.

    One process-global sink, disabled by default. Instrumentation
    sites guard on [!enabled] — a single mutable-bool load — so the
    cost with tracing off is one branch per site and zero allocation
    (the event is only constructed behind the guard).

    Install a sink for the duration of a run with {!with_sink}; runs
    are single-threaded, nesting is not supported. *)

type sink = int -> Event.t -> unit
(** [sink ts ev]: receives each event with its timestamp (ns). *)

val enabled : bool ref
(** Read-only for emitters ([if !Trace.enabled then ...]); managed by
    {!install} / {!clear}. *)

val install : sink -> unit
val clear : unit -> unit

val emit : int -> Event.t -> unit
(** Forward to the current sink; a no-op when disabled. Call behind an
    [!enabled] guard so the event is not even built when tracing is
    off. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install, run, and always clear (even on exceptions). *)

val jsonl_sink : out_channel -> sink
(** Write each event as one canonical JSON line (see
    {!Event.to_json_line}). *)

val binary_sink : out_channel -> sink * (unit -> unit)
(** Varint-encoded binary trace (see {!Event.add_binary}): writes the
    {!Event.bin_magic} header immediately, then buffers events and
    dumps the buffer every 64KiB. Returns the
    sink and a [flush] that must run before the channel is closed.
    [ppt_trace decode] turns the file back into canonical JSONL. *)

(** Bounded in-memory capture for tests: keeps the most recent
    [capacity] events and counts what it had to overwrite. *)
module Ring : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 65536 events. *)

  val sink : t -> sink
  val length : t -> int
  val total : t -> int
  (** Events ever received, including overwritten ones. *)

  val dropped : t -> int
  val to_list : t -> (int * Event.t) list
  (** Oldest first. *)

  val iter : t -> (int -> Event.t -> unit) -> unit
  val clear : t -> unit
end
