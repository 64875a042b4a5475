(** Network fabric: hosts and switches connected by ports.

    A port is unidirectional: it owns an egress {!Prio_queue.t}, a line
    rate and a propagation delay, and points at a peer node. Topology
    builders create ports, wire peers, build hosts and switches (each
    switch with its forwarding table) and then call {!create}. *)

open Ppt_engine

type port = {
  owner : int;
  pix : int;
  rate : Units.rate;
  delay : Units.time;
  mutable peer : int;
  q : Prio_queue.t;
  mutable busy : bool;
  mutable tx_bytes : int;
  mutable gix : int;
  (** The port's index among all ports of its net; installed by
      {!create}. Its end-of-serialization event carries it. *)
  mutable recv_fire : Packet.t -> unit;
  (** Far-end arrival continuation; installed by {!create}. The net's
      arrival event ({!Ppt_engine.Sim.post}, no allocation), whose
      argument packs the packet's id with the sending port's [gix],
      calls it with the packet. Not meant to be called by users. *)
  mutable up : bool;
  (** [false] parks the transmit loop and discards new arrivals as
      fault drops (reason 'D'); already-queued packets park until
      {!kick} after the port is raised again. Default [true]. *)
  mutable cur_rate : Units.rate;
  (** Effective line rate; equals [rate] unless degraded. *)
  mutable extra_delay : Units.time;
  (** Added one-way propagation delay; 0 unless degraded. *)
  mutable fault_filter : (Packet.t -> char option) option;
  (** Consulted once per transmitted packet; [Some reason] loses the
      packet on the wire ('L' random loss, 'C' corruption). The packet
      still occupies its serialization time. Default [None]. *)
  mutable fault_drops : int;
  (** Packets killed by the filter or discarded while down. *)
}

val ecmp_hash : int -> int -> int
(** [ecmp_hash key n] — deterministic candidate selection in
    [0, n)]. *)

(** How a switch picks among ECMP candidate ports. *)
type selector =
  | Sel_flow      (** classic per-flow ECMP *)
  | Sel_packet    (** spray every packet independently (NDP-style) *)
  | Sel_flowlet of { gap : Units.time; tbl : (int, flowlet) Hashtbl.t }
      (** re-hash a flow after a pause longer than [gap]
          (LetFlow-style); [tbl] is the per-node flowlet memory *)

and flowlet = { mutable fl_cand : int; mutable fl_last : Units.time }

type fwd = {
  base : int array;  (** [base.(dst)] = egress port, or -1 for ECMP *)
  cand : int array;  (** ECMP candidate ports (shared by all dsts) *)
  sel : selector;
}
(** Flat forwarding table of a switch: routing is an array read plus,
    on the ECMP path, a hash — no list traversal, no closure call, no
    allocation. Built by the [Topology] builders. *)

type node = {
  nid : int;
  is_host : bool;
  ports : port array;
  fwd : fwd;  (** empty on hosts, which never forward *)
}

type t

val make_port :
  owner:int -> pix:int -> rate:Units.rate -> delay:Units.time ->
  Prio_queue.config -> port

val make_host : nid:int -> port -> node
(** A host with its one NIC port (port 0). *)

val make_switch : nid:int -> fwd -> port array -> node

val create : Sim.t -> ?collect_int:bool -> node array -> t
(** Node ids must equal their array index and every port must be wired.
    [collect_int] makes switches stamp HPCC inband telemetry on data
    packets. Every port's queue takes its chunks from one pool the net
    holds ({!Prio_queue.share_pool}), so a port's queue must not have
    held an entry yet. *)

val sim : t -> Sim.t
val node : t -> int -> node
val port : t -> int -> int -> port
val n_nodes : t -> int

val register : t -> host:int -> flow:int -> (Packet.t -> unit) -> unit
(** Install the endpoint handler receiving flow [flow]'s packets that
    arrive at [host], replacing any earlier one at that host. A flow
    has handlers at two hosts at most (its source and destination). The
    table holds a pair of handlers for each live flow (one with a
    handler), at the flow id modulo its size; it doubles when two live
    ids clash there, so the ids live at one time should be close
    together.
    @raise Invalid_argument on a negative flow id, a [host] that is not
    a host of this network, or a third host for one flow. *)

val unregister : t -> host:int -> flow:int -> unit
(** Remove the handler of [flow] at [host]; a no-op if there is none.
    A flow with no handler left frees its pair: a later packet for it
    is undeliverable. *)

val delivery_pairs : t -> int
(** The delivery table's size, in pairs of handlers. *)

val send : t -> Packet.t -> unit
(** Inject a packet at its source host's NIC. The fabric owns it from
    here and carries it by id.

    A packet that joins a host NIC already holding a deep backlog (256
    KB queued, ~52 us of 40G line time) is queued exactly as any other
    and then parked: the net keeps its fields in a compact descriptor
    of its own, the queue entry names the descriptor, and the record is
    released. When the packet reaches the head of the queue it gets a
    record again ({!Packet.acquire}) with its uid and every field as
    they were: only its id differs. Packets a descriptor cannot hold
    exactly (HPCC telemetry, header words past the first, a node id,
    payload or priority too wide for its field) keep their record;
    switch ports never park.
    @raise Invalid_argument unless the packet is current
    ({!Packet.is_current}): a [{ p with ... }] copy, a packet made
    before the last [Packet.reset], or a released packet. *)

val start_probes : t -> interval:Units.time -> until:Units.time -> unit
(** Schedule a recurring sampler that emits
    [Probe_queue]/[Probe_link]/[Probe_dt] trace events for every port
    (see {!Ppt_obs.Event}) each [interval], while the clock stays at or
    below [until]. Samples are only emitted while a trace sink is
    installed; the fabric's own packet-lifecycle events
    ([enqueue]/[dequeue]/[ecn_mark]/[drop]/[trim]) are emitted
    unconditionally whenever tracing is enabled. *)

val kick : t -> port -> unit
(** Restart a port's transmit loop if it is up and idle. Fault
    injectors call this after raising [up] so queued packets start
    draining again; a no-op on busy or downed ports. *)

val parked : t -> int
(** Packets parked in host NICs now (see {!send}). At any point of a
    run that made every packet with [Packet.make] or
    [Packet.next_uid], [Packet.made ()] equals {!delivered} +
    {!undeliverable} + {!total_drops} + {!total_fault_drops} + records
    in use + [parked]. *)

val delivered : t -> int
val undeliverable : t -> int
val total_drops : t -> int
val total_marks : t -> int
val total_fault_drops : t -> int
