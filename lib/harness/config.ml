(* Experiment configuration: topology shape, switch parameters, the
   workload and the offered load.

   The named constructors mirror the paper's setups:
   - [testbed]      — the CloudLab cluster of §6.1 (15 hosts, one
                      switch, 10G NICs, ~80us RTT, Table 3 parameters);
   - [oversub]      — §6.2's 1.4:1 oversubscribed two-tier fabric
                      (9 leaves x 16 hosts at 40G, 4 spines at 100G);
   - [fast]         — the same shape at 100/400G (Fig. 22);
   - [non_oversub]  — appendix E's fully-provisioned fabric.

   [scale] shrinks the fabric (fewer leaves/hosts) so a full bench run
   completes in minutes; the shapes and oversubscription ratios are
   preserved. *)

open Ppt_engine
open Ppt_netsim
open Ppt_workload

type topo_kind =
  | Star of { n_hosts : int; rate : Units.rate; delay : Units.time }
  | Leaf_spine of {
      hosts_per_leaf : int;
      n_leaf : int;
      n_spine : int;
      edge_rate : Units.rate;
      core_rate : Units.rate;
      edge_delay : Units.time;
      core_delay : Units.time;
    }

type pattern_kind =
  | All_to_all
  | Incast of { n_senders : int }

(* Structured event tracing (lib/obs). [trace_path] writes the run's
   events in [trace_fmt] — canonical JSONL or the compact binary
   encoding (`ppt_trace decode` turns the latter back into identical
   JSONL); [None] keeps whatever sink the caller installed (e.g. an
   in-memory ring in tests). [probe_interval] additionally samples
   per-port occupancy / link utilization / DT thresholds. *)
type trace_fmt = Json | Bin

type trace_cfg = {
  trace_path : string option;
  trace_fmt : trace_fmt;
  probe_interval : Units.time option;
}

type t = {
  name : string;
  topo : topo_kind;
  buffer_bytes : int;              (* per switch port *)
  hp_thresh : int option;          (* ECN threshold, P0-P3 *)
  lp_thresh : int option;          (* ECN threshold, P4-P7 *)
  dt : bool;                       (* dynamic-threshold buffer sharing *)
  routing : Topology.routing;      (* leaf-spine load balancing *)
  rto_min : Units.time;
  workload : Cdf.t;
  workload_name : string;
  pattern : pattern_kind;
  load : float;
  n_flows : int;
  seed : int;
  trace : trace_cfg option;        (* None = tracing off *)
  faults : Ppt_faults.Fault_spec.t option;
  (* None / Some [] = pristine fabric (bit-identical to a build
     without the fault layer) *)
}

let n_hosts t =
  match t.topo with
  | Star { n_hosts; _ } -> n_hosts
  | Leaf_spine { hosts_per_leaf; n_leaf; _ } -> hosts_per_leaf * n_leaf

let with_workload ?name cdf t =
  let workload_name =
    match name with Some n -> n | None -> t.workload_name
  in
  { t with workload = cdf; workload_name }

let with_trace ?path ?(fmt = Json) ?probe_interval t =
  { t with
    trace = Some { trace_path = path; trace_fmt = fmt; probe_interval } }

let with_faults spec t = { t with faults = Some spec }

(* What every setup shares: §6.2's switch parameters, web-search
   traffic spread all-to-all, no tracing and no faults. Each named
   setup below overrides only what differs. *)
let make ~name ~topo ~n_flows ~load ~seed =
  { name; topo;
    buffer_bytes = Units.kb 120;
    hp_thresh = Some (Units.kb 96);
    lp_thresh = Some (Units.kb 86);
    dt = true; routing = Topology.Per_flow;
    rto_min = Units.ms 1;
    workload = Dists.web_search; workload_name = "web-search";
    pattern = All_to_all; load; n_flows; seed; trace = None;
    faults = None }

(* A two-tier fabric at [edge]/[core] Gbps, [scale] leaves of 8 hosts
   over 2 spines, or the full 9 x 16 hosts over 4 spines at [scale] 9
   and above. *)
let leaf_spine ~scale ~edge ~core =
  let n_leaf, hosts_per_leaf, n_spine =
    if scale >= 9 then (9, 16, 4) else (max 2 scale, 8, 2)
  in
  Leaf_spine
    { hosts_per_leaf; n_leaf; n_spine;
      edge_rate = Units.gbps edge; core_rate = Units.gbps core;
      edge_delay = Units.us 1; core_delay = Units.us 1 }

(* §6.1 testbed: Table 3. *)
let testbed ?(n_flows = 300) ?(load = 0.5) ?(seed = 1) () =
  { (make ~name:"testbed"
       ~topo:(Star { n_hosts = 15; rate = Units.gbps 10;
                     delay = Units.us 19 })
       ~n_flows ~load ~seed)
    with
    buffer_bytes = Units.mb 1;       (* ~50MB shared by 54 ports *)
    hp_thresh = Some (Units.kb 100);
    lp_thresh = Some (Units.kb 80);
    rto_min = Units.ms 10 }

(* §6.2 oversubscribed fabric: 40/100G, 120KB port buffer, ECN 96/86KB. *)
let oversub ?(scale = 4) ?(n_flows = 300) ?(load = 0.5) ?(seed = 1) () =
  make ~name:"oversub-40/100G" ~topo:(leaf_spine ~scale ~edge:40 ~core:100)
    ~n_flows ~load ~seed

(* Fig. 22: the same shape at 100/400G, with buffer and thresholds
   doubled. *)
let fast ?(scale = 4) ?(n_flows = 300) ?(load = 0.5) ?(seed = 1) () =
  { (make ~name:"oversub-100/400G"
       ~topo:(leaf_spine ~scale ~edge:100 ~core:400) ~n_flows ~load ~seed)
    with
    buffer_bytes = Units.kb 240;
    hp_thresh = Some (Units.kb 192);
    lp_thresh = Some (Units.kb 172) }

(* Appendix E: non-oversubscribed (16x10G down = 4x40G up per leaf). *)
let non_oversub ?(scale = 4) ?(n_flows = 300) ?(load = 0.5) ?(seed = 1)
    () =
  make ~name:"non-oversub-10/40G" ~topo:(leaf_spine ~scale ~edge:10 ~core:40)
    ~n_flows ~load ~seed

(* Figs. 1/20/28/29: two senders, one receiver, 40G bottleneck.

   The 20us default per-link delay gives a base RTT near the testbed's
   80us, putting the BDP (~430KB at 40G) well above the 120KB ECN
   threshold — the regime where DCTCP's startup and window cuts leave
   the bottleneck idle (Fig. 1's 25-50% utilization band). The deep
   default buffer means ECN, not drop-tail, does the signalling.
   Figs. 28/29 override both: the paper's 120KB total buffer at a
   small RTT. *)
let dumbbell ?(n_flows = 400) ?(load = 0.5) ?(seed = 1)
    ?(delay = Units.us 20) ?(buffer_bytes = Units.mb 4)
    ?(hp_thresh = Units.kb 120) ?(lp_thresh = Units.kb 100) () =
  { (make ~name:"dumbbell-2to1-40G"
       ~topo:(Star { n_hosts = 3; rate = Units.gbps 40; delay })
       ~n_flows ~load ~seed)
    with
    buffer_bytes;
    hp_thresh = Some hp_thresh;
    lp_thresh = Some lp_thresh;
    pattern = Incast { n_senders = 2 } }
