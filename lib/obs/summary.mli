(** Aggregate view of a trace: event counts, per-port occupancy peaks,
    mark/drop/retransmit totals — what `ppt_trace summary` prints and
    what trace diffs compare at the count level. *)

type t = {
  events : int;
  by_tag : (string * int) list;        (** tag -> count, sorted *)
  max_occ : ((int * int) * int) list;
  (** (node, port) -> max occupancy seen in any queue event, sorted *)
  data_enqueues : int;                 (** kind='D' enqueues *)
  marks : int;
  drops : int;
  trims : int;
  retransmits : int;
  fault_drops : int;                   (** injected loss/corruption *)
  link_events : int;                   (** link_down/up/degrade *)
  flows_started : int;
  flows_done : int;
  t_first : int;                       (** [max_int] when empty *)
  t_last : int;
}

val create : unit -> t
(** Empty summary (fold seed). *)

val add : t -> int -> Event.t -> t

val of_list : (int * Event.t) list -> t

val pp : Format.formatter -> t -> unit
