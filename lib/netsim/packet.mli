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
    handlers only borrow the packet for the duration of the call. See
    HACKING.md, "Allocation discipline".

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
(** Acquire a packet (a free record when there is one), with every
    mutable field re-initialised by plain int stores: the header words
    are cleared, and the telemetry buffer is kept but emptied. After
    {!reset}, the first [make] gets id 0. *)

val of_id : int -> t
(** The record with this id.
    @raise Invalid_argument if the arena holds no such id. *)

val is_current : t -> bool
(** [of_id p.id == p]: false for a copy, for {!dummy} and for a packet
    made before the last {!reset}. *)

val release : t -> unit
(** Free a packet's id (and, when pooling is on, its record). No-op
    on {!dummy}. The caller must not touch the packet afterwards. A
    second release, or the release of a record that is not current,
    is ignored, and raises [Invalid_argument] in debug mode. *)

val assert_live : t -> unit
(** @raise Invalid_argument if the packet was released
    (use-after-release). Cheap; called from debug paths. *)

val reset : unit -> unit
(** Drop the arena and restart the uid counter. Done per run (by
    [Context.create] and when [Runner.run] returns), so back-to-back
    in-process runs hand out identical uid sequences and a run's
    stranded packets do not outlive it. *)

val set_pooling : bool -> unit
(** Turn record recycling on/off (default on; env [PPT_NO_POOL] turns
    it off). With pooling off, [make] always allocates a fresh record;
    ids are recycled either way. *)

val pooling : unit -> bool
(** Whether record recycling is on. *)

val set_debug : bool -> unit
(** Enable double-release / use-after-release checking with field
    poisoning (default off; env [PPT_POOL_DEBUG=1] turns it on). *)

val pool_size : unit -> int
(** Ids currently on the free list. *)

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
val segment_payload : flow_bytes:int -> seq:int -> int
(** Payload of segment [seq] of a [flow_bytes]-sized flow; all segments
    carry [max_payload] except a shorter final one. *)
