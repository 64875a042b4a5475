(** Pull events from a trace file, in either format.

    A file that starts with {!Event.bin_magic} is a binary trace
    ({!Trace.binary_sink}); anything else is read as JSONL
    ({!Trace.jsonl_sink}). A reader holds one event at a time, so
    reading a trace of any length takes constant memory. *)

exception Corrupt of string * int * string
(** [Corrupt (path, pos, msg)]: the event at [pos] does not decode.
    [pos] is a line number (from 1) in a JSONL trace and the byte
    offset of the event in a binary trace. *)

type t

val with_file : string -> (t -> 'a) -> 'a
(** Open a trace, pass its reader to the function and close the file
    when the function returns or raises.
    @raise Sys_error if the file cannot be opened. *)

val next : t -> (int * Event.t) option
(** The next event and its timestamp; [None] at the end of the trace,
    and on every call after it.
    @raise Corrupt on an event that does not decode (a binary trace
    that ends inside an event is corrupt). *)

val fold : t -> ('a -> int -> Event.t -> 'a) -> 'a -> 'a
(** Fold over the remaining events, in order. @raise Corrupt as
    {!next} does. *)
