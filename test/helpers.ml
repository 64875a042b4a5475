(* Shared fixtures for the test suites: small topologies with known
   parameters, and helpers to run flows to completion. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport

let default_qcfg ?(buffer = Units.kb 200) ?(hp_thresh = Units.kb 60)
    ?(lp_thresh = Units.kb 40) () =
  { (Prio_queue.default_config ~buffer_bytes:buffer) with
    Prio_queue.mark_thresholds =
      Prio_queue.mark_bands ~hp:(Some hp_thresh) ~lp:(Some lp_thresh) }

(* A small star network: [n] hosts at [rate] with per-link [delay]. *)
let star ?(n = 4) ?(rate = Units.gbps 10) ?(delay = Units.us 2) ?qcfg
    ?(collect_int = false) () =
  let sim = Sim.create () in
  let qcfg = match qcfg with Some q -> q | None -> default_qcfg () in
  let topo =
    Topology.star ~collect_int ~sim ~n_hosts:n ~rate ~delay ~qcfg ()
  in
  let rng = Rng.create 42 in
  let ctx = Context.of_topology ~rto_min:(Units.ms 1) ~rng topo in
  (sim, topo, ctx)

(* After a run to quiescence every scheduled event must have fired or
   been cancelled. A non-zero count is a timer leak: some pacer or RTO
   outlived its flow and would keep a longer simulation spinning. *)
let assert_drained sim =
  Alcotest.(check int) "sim drained (pending timers)" 0
    (Sim.pending sim)

(* Start a list of specs through [Endpoint.launch], the launcher every
   run uses, in list order. *)
let launch_specs ctx start specs =
  Endpoint.launch ctx start ~n:(List.length specs)
    (Ppt_workload.Trace.cursor specs)

(* Start the given (src, dst, size, start) flows on a transport through
   [Endpoint.launch]: flows are numbered by list position and started
   in order of start time, ties in list order. *)
let launch ctx start specs =
  launch_specs ctx start
    (List.stable_sort
       (fun (a : Ppt_workload.Trace.spec) b -> compare a.start b.start)
       (List.mapi
          (fun id (src, dst, size, start) ->
             { Ppt_workload.Trace.id; src; dst; size; start })
          specs))

(* Launch the flows and run the simulation to quiescence. Every e2e
   test going through here also gets the drain check. *)
let run_flows ctx start specs =
  launch ctx start specs;
  Sim.run ~until:(Units.sec 30) ctx.Context.sim;
  assert_drained ctx.Context.sim

let fct_of ctx id =
  let recs = Ppt_stats.Fct.records ctx.Context.fct in
  match List.find_opt (fun r -> r.Ppt_stats.Fct.flow = id) recs with
  | Some r -> Some (r.Ppt_stats.Fct.finish - r.Ppt_stats.Fct.start)
  | None -> None
