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
  mutable tx_payload : int;
  mutable gix : int;
  (** The port's index among all ports of its net; installed by
      {!create}. Its end-of-serialization event carries it. *)
  mutable recv_fire : Packet.t -> unit;
  (** Far-end arrival continuation; installed by {!create}. The net's
      arrival event ({!Ppt_engine.Sim.post}, no allocation) calls it
      with the packet. Not meant to be called by users. *)
  mutable memo_bytes : int;
  mutable memo_rate : Units.rate;
  mutable memo_tx : Units.time;
  (** Serialization-time memo: [memo_tx] caches
      [Units.tx_time ~rate:memo_rate ~bytes:memo_bytes]. A port sees
      only a handful of distinct wire sizes, so this removes the
      division from nearly every transmit. Maintained by the transmit
      loop; not meant to be touched by users. *)
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
    packets. *)

val sim : t -> Sim.t
val node : t -> int -> node
val port : t -> int -> int -> port
val n_nodes : t -> int

val register : t -> host:int -> flow:int -> (Packet.t -> unit) -> unit
(** Install the endpoint handler receiving flow [flow]'s packets that
    arrive at [host], replacing any earlier one at that host. A flow
    has handlers at two hosts at most (its source and destination), and
    the table is indexed by flow id, so ids should be dense.
    @raise Invalid_argument on a negative flow id, a [host] that is not
    a host of this network, or a third host for one flow. *)

val unregister : t -> host:int -> flow:int -> unit
(** Remove the handler of [flow] at [host]; a no-op if there is none. *)

val send : t -> Packet.t -> unit
(** Inject a packet at its source host's NIC. *)

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

val delivered : t -> int
val undeliverable : t -> int
val total_drops : t -> int
val total_marks : t -> int
val total_fault_drops : t -> int
