(** Packets: the unit of everything the simulator moves.

    Transports attach protocol payloads via the extensible [meta]
    variant (see [Ppt_transport.Wire]), keeping the network layer
    protocol-agnostic.

    Packets are pooled: [make] recycles a record from a process-global
    free list and [release] returns one to it, so the steady-state
    datapath allocates nothing per packet. Ownership is linear — the
    creator owns a packet until [Net.send], the fabric owns it from
    then on and releases it at a sink (delivery, drop, fault kill);
    delivery handlers only borrow the packet for the duration of the
    call. See HACKING.md, "Allocation discipline". *)

type kind = Data | Ack | Grant | Pull | Nack | Ctrl

type loop = H | L
(** Which control loop the packet belongs to: the high-priority
    primary loop or a low-priority opportunistic one. *)

type meta = ..
type meta += No_meta

val tel_stride : int
(** Ints per telemetry entry: qlen, tx_bytes, ts, rate. *)

type t = {
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
  mutable meta : meta;
  mutable tel_n : int;
  tel : int array;          (** [tel_cap] x [tel_stride], first hop first *)
  mutable in_pool : bool;
}

val header_bytes : int
val mtu : int
val max_payload : int
(** MTU minus header: the segment payload size (1460B). *)

val ctrl_bytes : int

val make :
  ?seq:int -> ?payload:int -> ?prio:int -> ?loop:loop ->
  ?ecn_capable:bool -> ?sel_drop:bool -> ?meta:meta ->
  flow:int -> src:int -> dst:int -> kind -> t
(** Acquire a packet (from the pool when one is free), with every
    mutable field re-initialised. *)

val release : t -> unit
(** Return a packet to the free list. No-op when pooling is off or on
    [dummy]. The caller must not touch the packet afterwards. *)

val assert_live : t -> unit
(** @raise Invalid_argument if the packet is on the free list
    (use-after-release). Cheap; called from debug paths. *)

val reset_uids : unit -> unit
(** Reset the uid counter (done per run by [Context.create]) so
    back-to-back in-process runs hand out identical uid sequences. *)

val set_pooling : bool -> unit
(** Turn the free list on/off (default on; env [PPT_NO_POOL] turns it
    off). With pooling off, [make] always allocates and [release] is a
    no-op. *)

val set_debug : bool -> unit
(** Enable double-release / use-after-release checking with field
    poisoning (default off; env [PPT_POOL_DEBUG=1] turns it on). *)

val pool_size : unit -> int
(** Packets currently on the free list. *)

val dummy : t
(** Inert placeholder: the fill of unused queue and pool slots, and
    what {!Prio_queue.dequeue_or_dummy} returns on an empty queue;
    never routed, never pooled. Does not consume a uid. *)

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
    data packet's telemetry on the ack they emit). *)

val segments_of_bytes : int -> int
val segment_payload : flow_bytes:int -> seq:int -> int
(** Payload of segment [seq] of a [flow_bytes]-sized flow; all segments
    carry [max_payload] except a shorter final one. *)
