(** Packets: the unit of everything the simulator moves.

    Transports carry their protocol headers in the header words
    [hw0]..[hw3] and [hflag], which only [Ppt_transport.Wire] names
    and interprets, keeping the network layer protocol-agnostic.

    Packets live in a process-wide arena and are addressed by their
    immutable [id]: queues and in-flight events hold ids, and
    {!of_id} reads the record back. [make] recycles a free record and
    [release] frees it again, so the steady-state datapath allocates
    nothing per packet. Ownership is linear — the creator owns a
    packet until [Net.send], the fabric owns it from then on and
    releases it at a sink (delivery, drop, fault kill); delivery
    handlers only borrow the packet for the duration of the call. While
    a packet waits deep in a host NIC's backlog the fabric may park it:
    it keeps the packet's fields in its own compact store, releases the
    record, and {!acquire}s one again, under the same uid, when the
    packet reaches the head of the queue. A parked packet has no record
    and its id changes; its uid does not. See
    HACKING.md, "Allocation discipline". The ownership checks are on in
    every run: {!release} raises on a double release, and [Net.send]
    refuses a packet that is not {!is_current}.

    A record must never be copied: [{ p with ... }] makes a second
    record with the original's [id], which the queues would resolve
    back to the original. Set fields on a packet from {!make} instead;
    [Net.send] refuses a copy. *)

type kind = Data | Ack | Grant | Pull | Nack | Ctrl

type loop = H | L
(** Which control loop the packet belongs to: the high-priority
    primary loop or a low-priority opportunistic one. *)

val tel_stride : int
(** Ints per telemetry entry: qlen, tx_bytes, ts, rate. *)

type t = {
  id : int;                 (** index in the arena; [-1] for {!dummy} *)
  mutable uid : int;
  mutable flow : int;
  mutable src : int;
  mutable dst : int;
  mutable seq : int;
  mutable payload : int;
  mutable wire : int;
  mutable prio : int;
  mutable kind : kind;
  mutable loop : loop;
  mutable ecn_capable : bool;
  mutable ecn_ce : bool;
  mutable trimmed : bool;
  mutable sel_drop : bool;
  mutable hw0 : int;
  mutable hw1 : int;
  mutable hw2 : int;
  mutable hw3 : int;
  mutable hflag : bool;
  (** The header words: what they mean depends on the packet's
      protocol header, read and written through
      [Ppt_transport.Wire]. {!make} clears them to [0] and [false]. *)
  mutable tel_n : int;
  mutable tel : int array;
  (** [tel_cap] x [tel_stride], first hop first; [[||]] until the
      packet is first stamped *)
  mutable free_link : int;
  (** [-2] while the packet is in use; on the free list, the next free
      id or [-1] *)
}

val header_bytes : int
val mtu : int
val max_payload : int
(** MTU minus header: the segment payload size (1460B). *)

val ctrl_bytes : int

val make :
  ?seq:int -> ?payload:int -> ?prio:int -> ?loop:loop ->
  ?ecn_capable:bool -> ?sel_drop:bool ->
  flow:int -> src:int -> dst:int -> kind -> t
(** Acquire a packet: the most recently released record when there is
    one, else a new record with the next id. Every mutable field is
    re-initialised by plain int stores: the header words are cleared,
    and the telemetry buffer is kept but emptied. After {!reset}, the
    first [make] gets id 0. *)

val next_uid : unit -> int
(** Take the run's next uid, as {!make} does. *)

val acquire :
  uid:int -> flow:int -> src:int -> dst:int -> seq:int -> payload:int ->
  wire:int -> prio:int -> kind:kind -> loop:loop -> ecn_capable:bool ->
  ecn_ce:bool -> trimmed:bool -> sel_drop:bool -> t
(** Acquire a record as {!make} does, with every field given and no
    uid taken: the header words are cleared and the telemetry emptied.
    [make] is [acquire ~uid:(next_uid ())] with its defaults, and
    [Net] re-acquires a parked packet under the uid it was made with.
    Its arguments are not optional, so a caller that is not inlined
    (any caller in the dev profile's [-opaque] build) allocates
    nothing to call it. *)

val made : unit -> int
(** Uids taken since the last {!reset}: the packets the run made. *)

val records : unit -> int
(** Records in the arena: the most packets that have held a record at
    once since the last {!reset} (records in use are [records () -
    pool_size ()]). *)

val of_id : int -> t
(** The record with this id.
    @raise Invalid_argument if the arena holds no such id. *)

val is_current : t -> bool
(** [of_id p.id == p] and [p] not released: false for a copy, for
    {!dummy}, for a packet made before the last {!reset} and for a
    released packet. *)

val release : t -> unit
(** Put a packet's record back on the free list; no-op on {!dummy}.
    The released record is poisoned (ids [min_int], [hflag] set), so a
    reader that kept it sees nonsense instead of another packet's
    fields; the caller must not touch it afterwards.
    @raise Invalid_argument unless the packet {!is_current}: a second
    release, a copy, or a packet made before the last {!reset}. *)

val reset : unit -> unit
(** Drop the arena and restart the uid counter. Done per run (by
    [Context.of_topology] and when [Runner.run] returns), so back-to-back
    in-process runs hand out identical uid sequences and a run's
    stranded packets do not outlive it. *)

val pool_size : unit -> int
(** Records currently on the free list. *)

val dummy : t
(** Inert placeholder: what {!Prio_queue.dequeue_or_dummy} returns on
    an empty queue; never routed, never pooled, not in the arena. Does
    not consume a uid. *)

(** {2 Inband telemetry (HPCC)}

    A fixed-capacity strided snapshot buffer owned by the packet:
    entry [i] is the [i]th hop on the path (first hop first). *)

val tel_count : t -> int
val tel_push : t -> qlen:int -> tx_bytes:int -> ts:int -> rate:int -> unit
(** Append one hop's snapshot; silently dropped beyond [tel_cap]. *)

val tel_qlen : t -> int -> int
val tel_tx_bytes : t -> int -> int
val tel_ts : t -> int -> int
val tel_rate : t -> int -> int
val tel_copy : src:t -> dst:t -> unit
(** Copy [src]'s telemetry into [dst]'s own buffer (receivers echo the
    data packet's telemetry on the ack they emit). The buffer is
    allocated on a packet's first {!tel_push} or non-empty copy. *)

val segments_of_bytes : int -> int
(** Segments of [max_payload] bytes, the last one possibly shorter,
    that carry [bytes]; 0 when [bytes <= 0]. *)
