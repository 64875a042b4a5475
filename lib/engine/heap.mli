(** Binary min-heap of int values with a deterministic FIFO tie-break
    on equal keys. Pointer-free: keys, ties and values live in three
    [int array]s. *)

type t

val create : unit -> t
(** An empty heap; storage is allocated on the first {!push}. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> key:int -> tie:int -> int -> unit
(** Insert a value; among equal [key]s, lower [tie] pops first. *)

val top_key : t -> int
(** Key of the minimum element, or [max_int] on an empty heap. *)

val pop_exn : t -> int
(** Remove and return the minimum element's value; read its key with
    {!top_key} beforehand. @raise Invalid_argument on an empty heap. *)

val pop_upto : t -> int -> int
(** [pop_upto t limit] removes and returns the minimum element's value
    if its key is at most [limit], and returns [-1] (leaving the heap
    unchanged) if the heap is empty or its minimum key is past
    [limit]. One call per pop for hot loops; meant for non-negative
    values, which [-1] cannot be mistaken for. *)

val filter_in_place : t -> f:(int -> bool) -> unit
(** Drop every element whose value does not satisfy [f] and
    re-heapify, in O(n). [f] is called once per element. Pop order of
    the survivors is unchanged. *)
