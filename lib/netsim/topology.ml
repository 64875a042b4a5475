(* Topology builders used by the paper's experiments:

   - [star]: N hosts on one switch — models the CloudLab testbed
     (15 hosts, one Dell S4048) and the 2-to-1 dumbbell of Fig. 1;
   - [leaf_spine]: the two-tier Clos fabric of the large-scale
     simulations (§6.2): 9 leaves x 16 hosts with 4 spines, at
     40/100G, 10/40G (non-oversubscribed) or 100/400G.

   Each builder wires every port, installs routing (ECMP across spines
   by flow hash) and reports a conservative base-RTT estimate used for
   BDP-derived transport parameters. *)

open Ppt_engine

type built = {
  net : Net.t;
  hosts : int array;
  base_rtt : Units.time;
  edge_rate : Units.rate;
  to_host_port : int -> int * int;
  (* Last-hop egress port (node id, port index) towards a host: the
     usual bottleneck and the place to sample utilization/occupancy. *)
  name : string;
}

(* Deterministic per-flow hash for ECMP spine selection (the fabric's
   own, re-exported for tests and custom builders). *)
let ecmp_hash = Net.ecmp_hash

(* How leaves spread traffic across spines.

   - [Per_flow]: classic ECMP — one spine per flow, no reordering;
   - [Per_packet]: spray every packet independently (NDP-style) —
     perfect balance, heavy reordering;
   - [Flowlet]: re-hash a flow whenever it pauses longer than [gap]
     (LetFlow-style) — balance without reordering bursts. *)
type routing =
  | Per_flow
  | Per_packet
  | Flowlet of { gap : Units.time }

let selector_of_routing = function
  | Per_flow -> Net.Sel_flow
  | Per_packet -> Net.Sel_packet
  | Flowlet { gap } -> Net.Sel_flowlet { gap; tbl = Hashtbl.create 64 }

(* Host NICs get a large unmarked buffer: the paper's end-host queueing
   happens in the TCP send buffer model, not the NIC ring. *)
let host_qcfg = Prio_queue.default_config ~buffer_bytes:(Units.mb 64)

let one_way_latency ~hops ~delay ~rate =
  hops * (delay + Units.tx_time ~rate ~bytes:Packet.mtu)

let star ?collect_int ~sim ~n_hosts ~rate ~delay ~qcfg () =
  if n_hosts < 2 then invalid_arg "Topology.star: need at least 2 hosts";
  let switch_id = n_hosts in
  let hosts =
    Array.init n_hosts (fun h ->
        let p = Net.make_port ~owner:h ~pix:0 ~rate ~delay host_qcfg in
        p.Net.peer <- switch_id;
        Net.make_host ~nid:h p)
  in
  let switch_ports =
    Array.init n_hosts (fun i ->
        let p = Net.make_port ~owner:switch_id ~pix:i ~rate ~delay qcfg in
        p.Net.peer <- i;
        p)
  in
  let switch =
    Net.make_switch ~nid:switch_id
      { Net.base = Array.init n_hosts Fun.id; cand = [||];
        sel = Net.Sel_flow }
      switch_ports
  in
  let net = Net.create sim ?collect_int (Array.append hosts [| switch |]) in
  { net;
    hosts = Array.init n_hosts Fun.id;
    base_rtt = 2 * one_way_latency ~hops:2 ~delay ~rate;
    edge_rate = rate;
    to_host_port = (fun h -> (switch_id, h));
    name = Printf.sprintf "star-%d@%dG" n_hosts (rate / 1_000_000_000) }

let leaf_spine ?collect_int ?(routing = Per_flow) ~sim ~hosts_per_leaf
    ~n_leaf ~n_spine ~edge_rate ~core_rate ~edge_delay ~core_delay
    ~qcfg () =
  let n_hosts = hosts_per_leaf * n_leaf in
  let leaf_id l = n_hosts + l in
  let spine_id s = n_hosts + n_leaf + s in
  let leaf_of_host h = h / hosts_per_leaf in
  let hosts =
    Array.init n_hosts (fun h ->
        let p =
          Net.make_port ~owner:h ~pix:0 ~rate:edge_rate ~delay:edge_delay
            host_qcfg
        in
        p.Net.peer <- leaf_id (leaf_of_host h);
        Net.make_host ~nid:h p)
  in
  let leaves =
    Array.init n_leaf (fun l ->
        let nid = leaf_id l in
        let down =
          Array.init hosts_per_leaf (fun i ->
              let p =
                Net.make_port ~owner:nid ~pix:i ~rate:edge_rate
                  ~delay:edge_delay qcfg
              in
              p.Net.peer <- (l * hosts_per_leaf) + i;
              p)
        in
        let up =
          Array.init n_spine (fun s ->
              let pix = hosts_per_leaf + s in
              let p =
                Net.make_port ~owner:nid ~pix ~rate:core_rate
                  ~delay:core_delay qcfg
              in
              p.Net.peer <- spine_id s;
              p)
        in
        (* Local hosts get their downlink; everyone else ECMPs over the
           uplinks. Each leaf gets its own selector (flowlet memory is
           per-node). *)
        Net.make_switch ~nid
          { Net.base =
              Array.init n_hosts (fun d ->
                  if leaf_of_host d = l then d mod hosts_per_leaf else -1);
            cand = Array.init n_spine (fun s -> hosts_per_leaf + s);
            sel = selector_of_routing routing }
          (Array.append down up))
  in
  let spines =
    Array.init n_spine (fun s ->
        let nid = spine_id s in
        let down =
          Array.init n_leaf (fun l ->
              let p =
                Net.make_port ~owner:nid ~pix:l ~rate:core_rate
                  ~delay:core_delay qcfg
              in
              p.Net.peer <- leaf_id l;
              p)
        in
        Net.make_switch ~nid
          { Net.base = Array.init n_hosts leaf_of_host; cand = [||];
            sel = Net.Sel_flow }
          down)
  in
  let nodes = Array.concat [ hosts; leaves; spines ] in
  let net = Net.create sim ?collect_int nodes in
  let base_rtt =
    2 * (one_way_latency ~hops:2 ~delay:edge_delay ~rate:edge_rate
         + one_way_latency ~hops:2 ~delay:core_delay ~rate:core_rate)
  in
  { net;
    hosts = Array.init n_hosts Fun.id;
    base_rtt;
    edge_rate;
    to_host_port =
      (fun h -> (leaf_id (leaf_of_host h), h mod hosts_per_leaf));
    name =
      Printf.sprintf "leafspine-%dx%d+%d@%d/%dG" n_leaf hosts_per_leaf
        n_spine (edge_rate / 1_000_000_000) (core_rate / 1_000_000_000) }
