(* Builds a fabric from a {!Config.t}, drives one transport scheme over
   the config's flows, each generated as it starts, and collects the
   statistics every figure reports. *)

open Ppt_engine
open Ppt_netsim
open Ppt_workload
open Ppt_stats
open Ppt_transport

type result = {
  r_scheme : string;
  r_config : Config.t;
  summary : Fct.summary;
  completed : int;
  requested : int;
  drops : int;
  marks : int;
  fault_drops : int;                 (* injected loss/corruption/down *)
  last_finish : Units.time;          (* when the last flow completed *)
  ops_per_host_sec : float;          (* datapath-operation rate proxy *)
  efficiency : float;                (* delivered / transmitted payload *)
  lp_efficiency : float;             (* same, low-priority loop only *)
  events : int;
  records : Fct.record list;         (* every completed flow *)
  flow_wmax : (int * float) list;    (* MW per finished flow, DCTCP only *)
  base_rtt : Units.time;
  edge_rate : Units.rate;
}

let horizon = Units.sec 120

(* A flow trace the fabric cannot run (an endpoint that is not one of
   its hosts, or flows out of start-time order); raised before the
   clock starts. *)
exception Invalid_trace of string

(* A fault spec whose selectors name hosts, nodes or ports the fabric
   does not have; raised before the clock starts. *)
exception Invalid_faults of string

(* Aeolus's selective-drop threshold, as a fraction of the buffer *)
let sel_drop_frac = 0.5

let qcfg_of (cfg : Config.t) (scheme : Schemes.t) ~lp_buffer_cap =
  let buffer_bytes =
    match scheme.Schemes.s_buffer_override with
    | Some b -> min b cfg.Config.buffer_bytes
    | None -> cfg.Config.buffer_bytes
  in
  { Prio_queue.buffer_bytes;
    mark_thresholds =
      Prio_queue.mark_bands ~hp:cfg.Config.hp_thresh
        ~lp:cfg.Config.lp_thresh;
    trim = scheme.Schemes.s_trim;
    sel_drop_threshold =
      (if scheme.Schemes.s_sel_drop then
         Some
           (int_of_float
              (sel_drop_frac *. float_of_int buffer_bytes))
       else None);
    lp_buffer_cap;
    (* commodity-switch dynamic buffer sharing: the low-priority band
       is squeezed out first when the buffer runs hot, so opportunistic
       traffic cannot displace primary-loop packets (cf. Fig. 23's
       "PPT falls back to DCTCP under heavy incast") *)
    dt_alphas =
      (if cfg.Config.dt then
         Some (Prio_queue.dt_bands ~hp:8.0 ~lp:1.0)
       else None) }

let build_topology sim (cfg : Config.t) (scheme : Schemes.t)
    ~lp_buffer_cap =
  let qcfg = qcfg_of cfg scheme ~lp_buffer_cap in
  let collect_int = scheme.Schemes.s_collect_int in
  match cfg.Config.topo with
  | Config.Star { n_hosts; rate; delay } ->
    Topology.star ~collect_int ~sim ~n_hosts ~rate ~delay ~qcfg ()
  | Config.Leaf_spine
      { hosts_per_leaf; n_leaf; n_spine; edge_rate; core_rate;
        edge_delay; core_delay } ->
    Topology.leaf_spine ~collect_int ~routing:cfg.Config.routing ~sim
      ~hosts_per_leaf ~n_leaf ~n_spine ~edge_rate ~core_rate
      ~edge_delay ~core_delay ~qcfg ()

let pattern_of (cfg : Config.t) (topo : Topology.built) =
  let hosts = topo.Topology.hosts in
  match cfg.Config.pattern with
  | Config.All_to_all -> Trace.All_to_all hosts
  | Config.Incast { n_senders } ->
    let n = Array.length hosts in
    if n_senders >= n then invalid_arg "Runner: incast needs a receiver";
    Trace.Incast
      { senders = Array.sub hosts 0 n_senders;
        receiver = hosts.(n - 1) }

(* The flow generator of [cfg] on its fabric. *)
let flow_source (cfg : Config.t) (topo : Topology.built) rng =
  Trace.source ~rng ~cdf:cfg.Config.workload ~pattern:(pattern_of cfg topo)
    ~edge_rate:topo.Topology.edge_rate ~load:cfg.Config.load ()

(* The flows [run cfg] generates, without running them: a run's
   generator draws from the first split of its seed. *)
let flows (cfg : Config.t) =
  (* the hosts and the edge rate do not depend on the scheme *)
  let topo =
    build_topology (Sim.create ()) cfg Schemes.dctcp ~lp_buffer_cap:None
  in
  let next = flow_source cfg topo (Rng.split (Rng.create cfg.Config.seed)) in
  List.init cfg.Config.n_flows (fun _ -> next ())

(* A given trace must run on the fabric: every endpoint a host, the
   flows sorted by start. Returns its length. *)
let check_trace (topo : Topology.built) (trace : Trace.spec list) =
  let net = topo.Topology.net in
  let is_host h =
    h >= 0 && h < Net.n_nodes net && (Net.node net h).Net.is_host
  in
  ignore
    (List.fold_left
       (fun prev_start (s : Trace.spec) ->
          if not (is_host s.src && is_host s.dst) then
            raise
              (Invalid_trace
                 (Printf.sprintf "Runner: flow %d: %d -> %d is not host to \
                                  host on %s"
                    s.id s.src s.dst topo.Topology.name));
          if s.start < prev_start then
            raise
              (Invalid_trace
                 (Printf.sprintf "Runner: flow %d starts at %d ns, before \
                                  the flow listed ahead of it (%d ns); the \
                                  trace must be sorted by start"
                    s.id s.start prev_start));
          s.start)
       min_int trace);
  List.length trace

(* Every packet a run made is accounted for once: delivered (or
   undeliverable), dropped by a queue or a fault, or still held, in a
   record or parked. Every byte a port queued was sent or is still
   queued, and each port's queue holds, chunk by chunk, the entries and
   bytes its counters say. Every completed flow's receiver took its
   whole payload, once, from the two loops together. Checked before the
   arena goes. *)
let audit_conservation (cfg : Config.t) (scheme : Schemes.t) net fct =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
         failwith
           (Printf.sprintf "Runner: %s on %s, seed %d: %s"
              scheme.Schemes.s_name cfg.Config.name cfg.Config.seed msg))
      fmt
  in
  let made = Packet.made ()
  and accounted =
    Net.delivered net + Net.undeliverable net + Net.total_drops net
    + Net.total_fault_drops net + Packet.records () - Packet.pool_size ()
    + Net.parked net
  in
  if made <> accounted then
    fail "packets not conserved: %d made, %d accounted for" made accounted;
  for nid = 0 to Net.n_nodes net - 1 do
    Array.iter
      (fun (port : Net.port) ->
         let q = port.Net.q in
         let enqueued = Prio_queue.enqueued_bytes q
         and queued = Prio_queue.bytes q in
         if enqueued <> port.Net.tx_bytes + queued then
           fail
             "port %d.%d: bytes not conserved: %d enqueued, %d sent, %d \
              queued"
             port.Net.owner port.Net.pix enqueued port.Net.tx_bytes queued;
         match Prio_queue.check q with
         | Ok () -> ()
         | Error what ->
           fail "port %d.%d: queue storage broken: %s" port.Net.owner
             port.Net.pix what)
      (Net.node net nid).Net.ports
  done;
  List.iter
    (fun (r : Fct.record) ->
       if r.hcp_delivered + r.lcp_delivered <> r.size then
         fail "flow %d: delivered %d+%d of %d" r.flow r.hcp_delivered
           r.lcp_delivered r.size)
    (Fct.records fct)

(* Launch every flow at its start time, drawn from the config's
   generator or from [trace], and stop the simulation once they have
   all completed; then audit packet conservation. [observe] may install
   samplers before the clock starts. *)
let run ?lp_buffer_cap ?trace ?(observe = fun _ _ -> ())
    (cfg : Config.t) (scheme : Schemes.t) =
  let sim = Sim.create () in
  let topo = build_topology sim cfg scheme ~lp_buffer_cap in
  (* Fault injection draws from its own seed-derived stream, so a
     spec (or its absence) never perturbs workload generation. *)
  (match cfg.Config.faults with
   | None | Some [] -> ()
   | Some spec ->
     try
       Ppt_faults.Injector.install ~net:topo.Topology.net
         ~hosts:topo.Topology.hosts
         ~to_host_port:topo.Topology.to_host_port
         ~seed:cfg.Config.seed spec
     with Invalid_argument msg -> raise (Invalid_faults msg));
  let rng = Rng.create cfg.Config.seed in
  let ctx = Context.of_topology ~rto_min:cfg.Config.rto_min ~rng topo in
  (* The generator's stream is split off whether or not it runs, so a
     replay leaves the run's stream where the generated run does. *)
  let gen_rng = Rng.split rng in
  let requested, next =
    match trace with
    | None -> (cfg.Config.n_flows, flow_source cfg topo gen_rng)
    | Some trace -> (check_trace topo trace, Trace.cursor trace)
  in
  let last_finish = ref 0 in
  ctx.Context.on_complete <- (fun _ ->
      last_finish := Sim.now sim;
      if ctx.Context.completed = requested then Sim.stop sim);
  Endpoint.launch ctx (scheme.Schemes.s_factory ctx) ~n:requested next;
  observe ctx topo;
  (* Structured event tracing (lib/obs): when the config asks for it,
     write the run's events to [trace_path] in its [trace_fmt] (JSONL
     or binary) and/or schedule the port probes.
     Without a [trace_path] any sink the caller already installed
     (e.g. a test's in-memory ring) is left in place. *)
  let trace_out =
    match cfg.Config.trace with
    | None -> None
    | Some tc ->
      (match tc.Config.probe_interval with
       | Some interval ->
         Net.start_probes ctx.Context.net ~interval ~until:horizon
       | None -> ());
      (match tc.Config.trace_path with
       | None -> None
       | Some path ->
         let oc = open_out path in
         (match tc.Config.trace_fmt with
          | Config.Json ->
            Ppt_obs.Trace.install (Ppt_obs.Trace.jsonl_sink oc);
            Some (oc, ignore)
          | Config.Bin ->
            let sink, flush = Ppt_obs.Trace.binary_sink oc in
            Ppt_obs.Trace.install sink;
            Some (oc, flush)))
  in
  Fun.protect
    ~finally:(fun () ->
        (* the run's packets, stranded ones included, go with it *)
        Packet.reset ();
        match trace_out with
        | Some (oc, flush) ->
          Ppt_obs.Trace.clear ();
          flush ();
          close_out oc
        | None -> ())
    (fun () ->
       Sim.run ~until:horizon sim;
       audit_conservation cfg scheme ctx.Context.net ctx.Context.fct);
  let fct = ctx.Context.fct in
  let summary = Fct.summarize fct in
  let lp_delivered = Fct.lcp_delivered fct in
  let ratio num den =
    if den = 0 then nan else float_of_int num /. float_of_int den
  in
  let duration_s = Units.to_sec (max 1 (Sim.now sim)) in
  let n_hosts = Array.length topo.Topology.hosts in
  let total_ops =
    Array.fold_left ( + ) 0
      (Array.sub ctx.Context.ops 0 n_hosts)
  in
  { r_scheme = scheme.Schemes.s_name;
    r_config = cfg;
    summary;
    completed = ctx.Context.completed;
    requested;
    drops = Net.total_drops ctx.Context.net;
    marks = Net.total_marks ctx.Context.net;
    fault_drops = Net.total_fault_drops ctx.Context.net;
    last_finish = !last_finish;
    ops_per_host_sec =
      float_of_int total_ops /. duration_s /. float_of_int n_hosts;
    efficiency =
      ratio (Fct.hcp_delivered fct + lp_delivered)
        (summary.Fct.hcp_bytes + summary.Fct.lcp_bytes);
    lp_efficiency = ratio lp_delivered summary.Fct.lcp_bytes;
    events = Sim.events_processed sim;
    records = Fct.records fct;
    flow_wmax = ctx.Context.flow_wmax;
    base_rtt = topo.Topology.base_rtt;
    edge_rate = topo.Topology.edge_rate }
