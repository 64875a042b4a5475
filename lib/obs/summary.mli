(** Aggregate view of a trace: event counts, per-port occupancy peaks,
    mark/drop/retransmit totals — what `ppt_trace summary` prints and
    what trace diffs compare at the count level. *)

type tables
(** Counts by event kind and occupancy peaks by (node, port). *)

type t = private {
  mutable events : int;
  mutable data_enqueues : int;         (** kind='D' enqueues *)
  mutable marks : int;
  mutable drops : int;
  mutable trims : int;
  mutable retransmits : int;
  mutable fault_drops : int;           (** injected loss/corruption *)
  mutable link_events : int;           (** link_down/up/degrade *)
  mutable flows_started : int;
  mutable flows_done : int;
  mutable t_first : int;               (** [max_int] when empty *)
  mutable t_last : int;
  tables : tables;
}

val create : unit -> t
(** Empty summary (fold seed). *)

val add : t -> int -> Event.t -> t
(** [add t ts ev] counts [ev] into [t] and returns [t]: it updates [t]
    in place, allocating nothing once every port it has seen has a
    slot. *)

val of_list : (int * Event.t) list -> t

val by_tag : t -> (string * int) list
(** Tag -> count of every kind seen, sorted by tag. *)

val max_occ : t -> ((int * int) * int) list
(** (node, port) -> highest occupancy any queue event reported there,
    sorted by (node, port). *)

val pp : Format.formatter -> t -> unit
