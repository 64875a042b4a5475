(* Quickstart: build a tiny network, run one PPT flow, read the FCT.

     dune exec examples/quickstart.exe

   This walks through the whole public API surface in ~40 lines:
   simulator, topology, context, transport, flow, statistics. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport

let () =
  (* 1. A simulator and a 4-host star at 10 Gbps, 20us per link (an
        80us-RTT datacenter path), with DCTCP-style ECN marking (60KB
        for the high-priority band, 40KB for PPT's low-priority band). *)
  let sim = Sim.create () in
  let qcfg =
    { (Prio_queue.default_config ~buffer_bytes:(Units.kb 200)) with
      Prio_queue.mark_thresholds =
        Prio_queue.mark_bands ~hp:(Some (Units.kb 60))
          ~lp:(Some (Units.kb 40)) }
  in
  let topo =
    Topology.star ~sim ~n_hosts:4 ~rate:(Units.gbps 10)
      ~delay:(Units.us 20) ~qcfg ()
  in

  (* 2. A run context: derived path constants + the FCT sink. *)
  let ctx =
    Context.of_topology ~rto_min:(Units.ms 1) ~rng:(Rng.create 42) topo
  in
  Format.printf "base RTT %a, BDP %d bytes@."
    Units.pp_time ctx.Context.base_rtt ctx.Context.bdp;

  (* 3. The PPT transport (HCP = DCTCP, LCP = opportunistic low-priority
        loop, buffer-aware scheduling). *)
  let ppt = Ppt_core.Ppt.make () ctx in

  (* 4. One 2MB flow from host 0 to host 1, started at t = 0. *)
  Endpoint.launch ctx ppt ~n:1
    (Ppt_workload.Trace.cursor
       [ { Ppt_workload.Trace.id = 0; src = 0; dst = 1; size = 2_000_000;
           start = 0 } ]);

  (* 5. Run to quiescence and read the statistics. *)
  Sim.run sim;
  match Ppt_stats.Fct.records ctx.Context.fct with
  | [ r ] ->
    Format.printf
      "flow of %d bytes completed in %.3f ms@.\
       primary loop sent %d KB, opportunistic loop sent %d KB@.\
       (the LCP filled the slow-start gap from the tail of the flow)@."
      r.Ppt_stats.Fct.size (Ppt_stats.Fct.fct_ms r)
      (r.Ppt_stats.Fct.hcp_payload / 1000)
      (r.Ppt_stats.Fct.lcp_payload / 1000)
  | _ -> prerr_endline "unexpected: flow did not complete"
