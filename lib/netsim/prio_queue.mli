(** Strict-priority egress queue discipline with ECN marking.

    Eight FIFO queues (P0 highest), a shared per-port drop-tail buffer,
    instantaneous-queue ECN marking per priority, and the optional
    NDP-trim / Aeolus-selective-drop / low-priority-cap behaviours used
    by the paper's baselines. *)

type config = {
  buffer_bytes : int;
  mark_thresholds : int option array;
  (** Per priority: mark an ECN-capable packet when the port occupancy
      it sees exceeds the threshold; [None] = no marking. *)
  trim : bool;
  sel_drop_threshold : int option;
  lp_buffer_cap : int option;
  dt_alphas : float array option;
  (** Dynamic-threshold buffer sharing: queue [q] admits a packet only
      while [qlen q <= alpha.(q) * (buffer - occupancy)]. *)
}

val n_prios : int
val lp_band_start : int
(** First priority of the low band (P4). *)

val trim_wire_bytes : int
(** Wire size of an NDP-trimmed header. *)

val no_marking : int option array

val dt_bands : hp:float -> lp:float -> float array
(** Per-band dynamic-threshold alphas (high band P0-P3, low P4-P7). *)

val mark_bands : hp:int option -> lp:int option -> int option array
(** Thresholds for the high (P0-P3) and low (P4-P7) bands. *)

val default_config : buffer_bytes:int -> config

type t
type verdict = Enqueued | Dropped | Trimmed

val create : config -> t
(** An empty queue with a chunk pool of its own. Each band keeps its
    entries in fixed-size chunks taken from the pool as its backlog
    grows and returned as it drains; a drained band keeps one chunk. *)

type pool
(** Chunks for the bands of any number of queues, each chunk taken by
    one band at a time. Chunks a band returns go on the pool's free
    list for the next band that needs one: a pool makes as many chunks
    as its queues held at once, never more, and frees none. *)

val pool : unit -> pool
(** An empty pool. *)

val share_pool : t -> pool -> unit
(** Take [t]'s chunks from [pool] from now on. [Net.create] gives every
    port of a net one pool.
    @raise Invalid_argument if [t] already holds a chunk. *)

val pool_chunks : pool -> int
(** Chunks the pool has made: the most its queues held at once. *)

val chunk_entries : int
(** Entries a chunk holds. *)

val chunk_words : int
(** Words a chunk takes in its pool's store. *)

val enqueue : t -> Packet.t -> verdict
(** The queue stores the packet's id, so it must be current
    ({!Packet.is_current}) from enqueue to dequeue: a record from
    [Packet.make], not a copy, not released, with no [Packet.reset] in
    between. @raise Invalid_argument, leaving the queue unchanged, on a
    wire size outside [[0, 4096)], which an entry cannot hold. *)

val enqueue_as : t -> Packet.t -> id:int -> verdict
(** {!enqueue}, with [id] stored in the entry in place of the packet's
    own: admission, marking, trimming and the counters read and update
    the packet exactly as {!enqueue} does. The queue never reads [id]
    back; [Net] stores a parked packet's descriptor there. [id] must
    lie in [[0, 2{^50})]. *)

val pop : t -> int
(** Remove and return the head-of-line entry, or [-1] when all queues
    are empty. An entry packs the id stored at enqueue (the packet's
    own, or {!enqueue_as}'s [id]) with the wire size it was queued at;
    read them with {!entry_id} and {!entry_wire}. *)

val entry_id : int -> int
val entry_wire : int -> int

val dequeue_or_dummy : t -> Packet.t
(** [pop] read back as its packet: {!Packet.dummy} when all queues are
    empty. Only for a queue filled by {!enqueue}. *)

val bytes : t -> int
val lp_bytes : t -> int
val hp_bytes : t -> int
val queue_bytes : t -> int -> int

val buffer_bytes : t -> int
(** Configured shared-buffer capacity. *)

val mark_threshold : t -> int -> int option
(** Configured ECN threshold of priority [prio] (clamped). *)

val dt_thresholds : t -> (int * int) option
(** Current dynamic-threshold admission limits [(hp, lp)] of the two
    bands — [alpha * (buffer - occupancy)] — or [None] when DT buffer
    sharing is off. *)

val drops : t -> int
val drops_hp : t -> int
val drops_lp : t -> int
val drop_bytes : t -> int
val trims : t -> int
val marks : t -> int
val enqueues : t -> int

val enqueued_bytes : t -> int
(** Wire bytes of every entry ever queued, as queued (trimmed entries
    at their trimmed size): what the port has sent plus {!bytes}. *)

val length : t -> int -> int
(** Entries queued at priority [prio]. *)

val bands_held : t -> int
(** Priorities holding a chunk: every one ever enqueued into. *)

val storage_words : t -> int
(** Words of the chunks [t]'s bands hold: at most
    [ceil (length t prio / chunk_entries) + 1] chunks of {!chunk_words}
    per priority that holds one. *)

val check : t -> (unit, string) result
(** Walk every band's chunks from head to tail: [Ok ()] when each
    holds {!length} entries whose wire sizes sum to {!queue_bytes},
    and the bands sum to {!bytes} and {!lp_bytes}; otherwise what
    differs. Linear in the entries queued. *)
