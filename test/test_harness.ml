(* Tests for the experiment harness: configurations, the runner and
   the figure generators (smoke level — the heavy sweeps are exercised
   by ppt_sim sweep). *)

open Ppt_engine
open Ppt_harness

let check = Alcotest.check

let tiny_cfg ?(pattern = Config.All_to_all) ?(n_flows = 40)
    ?(load = 0.4) () =
  { (Config.oversub ~scale:2 ~n_flows ~load ()) with
    Config.pattern;
    rto_min = Units.ms 1 }

let test_config_shapes () =
  let t = Config.testbed () in
  check Alcotest.int "testbed hosts" 15 (Config.n_hosts t);
  let o = Config.oversub ~scale:9 () in
  check Alcotest.int "full fabric hosts" 144 (Config.n_hosts o);
  let s = Config.oversub ~scale:4 () in
  check Alcotest.int "scaled fabric hosts" 32 (Config.n_hosts s);
  let f = Config.fast () in
  check Alcotest.bool "fast fabric named" true
    (f.Config.name = "oversub-100/400G")

let test_runner_completes_all_schemes () =
  List.iter
    (fun scheme ->
       let r = Runner.run (tiny_cfg ()) scheme in
       check Alcotest.int
         (scheme.Schemes.s_name ^ " completes the trace")
         r.Runner.requested r.Runner.completed)
    (Schemes.headline @ [ Schemes.pias; Schemes.hpcc; Schemes.swift;
                          Schemes.ppt_swift ])

let test_runner_determinism () =
  let run () =
    let r = Runner.run (tiny_cfg ()) Schemes.ppt in
    (r.Runner.summary.Ppt_stats.Fct.overall_avg, r.Runner.events)
  in
  check Alcotest.bool "same seed, same result" true (run () = run ())

let test_runner_seed_changes_result () =
  let run seed =
    let cfg = { (tiny_cfg ()) with Config.seed } in
    (Runner.run cfg Schemes.ppt).Runner.events
  in
  check Alcotest.bool "different seed, different run" true
    (run 1 <> run 2)

(* Determinism guard for the scheduler rework: a scaled-down fig8-style
   run (testbed fabric, web-search workload) repeated with the same seed
   must reproduce the full FCT summary, the events-processed count and
   the fabric-wide drop/mark totals, for every scheme fig8 sweeps. *)
let test_fig8_determinism () =
  let cfg = Config.testbed ~n_flows:60 ~load:0.5 () in
  List.iter
    (fun scheme ->
       let snap () =
         let r = Runner.run cfg scheme in
         (r.Runner.summary, r.Runner.events, r.Runner.drops,
          r.Runner.marks)
       in
       let (s1, e1, d1, m1) = snap () and (s2, e2, d2, m2) = snap () in
       let name = scheme.Schemes.s_name in
       check Alcotest.bool (name ^ ": identical fct summary") true
         (s1 = s2);
       check Alcotest.int (name ^ ": identical events") e1 e2;
       check Alcotest.int (name ^ ": identical drops") d1 d2;
       check Alcotest.int (name ^ ": identical marks") m1 m2)
    Schemes.testbed_set

let test_runner_incast () =
  let cfg = tiny_cfg ~pattern:(Config.Incast { n_senders = 8 }) () in
  let r = Runner.run cfg Schemes.ppt in
  check Alcotest.int "incast completes" r.Runner.requested
    r.Runner.completed

let test_runner_lp_cap () =
  let r =
    Runner.run ~lp_buffer_cap:(Units.kb 24) (tiny_cfg ()) Schemes.rc3
  in
  check Alcotest.int "rc3 with capped lp buffer completes"
    r.Runner.requested r.Runner.completed

let test_runner_efficiency_bounds () =
  let r = Runner.run (tiny_cfg ()) Schemes.ppt in
  check Alcotest.bool "efficiency in (0, 1]" true
    (r.Runner.efficiency > 0. && r.Runner.efficiency <= 1.0)

let test_ablations_direction () =
  (* disabling the whole LCP must not make overall FCT better than the
     full design under a startup-dominated workload *)
  let cfg = tiny_cfg ~n_flows:60 () in
  let full = Runner.run cfg Schemes.ppt in
  let no_sched = Runner.run cfg Schemes.ppt_no_sched in
  let small r = r.Runner.summary.Ppt_stats.Fct.small_avg in
  check Alcotest.bool
    (Printf.sprintf "scheduling helps small flows: %.4f <= %.4f x1.5"
       (small full) (small no_sched))
    true
    (small full <= 1.5 *. small no_sched)

(* The headline reproduction shape, as a regression test: on the
   web-search fabric PPT must beat DCTCP on overall and small-flow FCT
   (the paper's central claim, Fig. 12). *)
let test_paper_shape_ppt_vs_dctcp () =
  let cfg = { (Config.oversub ~scale:2 ~n_flows:200 ~load:0.5 ()) with
              Config.rto_min = Units.ms 1 } in
  let d = (Runner.run cfg Schemes.dctcp).Runner.summary in
  let p = (Runner.run cfg Schemes.ppt).Runner.summary in
  check Alcotest.bool
    (Printf.sprintf "overall: ppt=%.3f < dctcp=%.3f"
       p.Ppt_stats.Fct.overall_avg d.Ppt_stats.Fct.overall_avg)
    true (p.Ppt_stats.Fct.overall_avg < d.Ppt_stats.Fct.overall_avg);
  check Alcotest.bool
    (Printf.sprintf "small avg: ppt=%.4f < dctcp=%.4f"
       p.Ppt_stats.Fct.small_avg d.Ppt_stats.Fct.small_avg)
    true (p.Ppt_stats.Fct.small_avg < d.Ppt_stats.Fct.small_avg);
  check Alcotest.bool
    (Printf.sprintf "small p99: ppt=%.4f < dctcp=%.4f"
       p.Ppt_stats.Fct.small_p99 d.Ppt_stats.Fct.small_p99)
    true (p.Ppt_stats.Fct.small_p99 < d.Ppt_stats.Fct.small_p99)

let test_figures_registry () =
  check Alcotest.int "36 experiments registered" 36
    (List.length Figures.all);
  List.iter
    (fun id ->
       check Alcotest.bool (id ^ " findable") true
         (Figures.find id <> None))
    [ "fig1"; "fig12"; "fig29"; "tab1"; "tab5"; "ext1"; "ext3";
      "chaos" ];
  check Alcotest.bool "unknown id rejected" true
    (Figures.find "fig99" = None)

(* The decomposition contract: unit keys are unique within each
   experiment, and the multi-unit experiments really decompose. *)
let test_figures_units_unique () =
  List.iter
    (fun e ->
       let units = e.Figures.e_units Figures.default_opts in
       let names = List.map (fun u -> u.Figures.u_name) units in
       check Alcotest.bool (e.Figures.e_id ^ ": has units") true
         (units <> []);
       check Alcotest.int
         (e.Figures.e_id ^ ": unit names unique")
         (List.length names)
         (List.length (List.sort_uniq compare names)))
    Figures.all;
  let n_units id =
    match Figures.find id with
    | Some e -> List.length (e.Figures.e_units Figures.default_opts)
    | None -> Alcotest.fail ("missing " ^ id)
  in
  check Alcotest.int "fig12 = head + 6 headline schemes" 7
    (n_units "fig12");
  check Alcotest.int "fig8 = head + 4 loads x (head + 4 schemes)" 21
    (n_units "fig8");
  check Alcotest.bool "tab2 is a single unit" true (n_units "tab2" = 1)

let test_static_tables_print () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun id ->
       match Figures.find id with
       | Some e -> Figures.render e Figures.default_opts ppf
       | None -> Alcotest.fail ("missing " ^ id))
    [ "tab1"; "tab2"; "tab3"; "tab4"; "tab5" ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length out in
    let rec go i =
      i + n <= h && (String.sub out i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
       check Alcotest.bool (needle ^ " printed") true (contains needle))
    [ "ppt"; "web-search"; "data-mining"; "RTO_min"; "transport control";
      "RAFT consensus" ]

(* A replayed trace whose endpoint is a switch or lies outside the
   fabric is refused before the clock starts, with a message naming the
   flow, instead of failing deep inside forwarding. *)
let test_runner_rejects_non_hosts () =
  let cfg = Config.testbed ~n_flows:2 () in
  let n = Config.n_hosts cfg in
  let error dst =
    let trace =
      [ { Ppt_workload.Trace.id = 0; src = 0; dst = 1; size = 1000;
          start = 0 };
        { Ppt_workload.Trace.id = 1; src = 2; dst; size = 1000;
          start = 0 } ]
    in
    match Runner.run ~trace cfg Schemes.dctcp with
    | r -> Printf.sprintf "ran: %d/%d" r.Runner.completed r.Runner.requested
    | exception Runner.Invalid_trace msg -> msg
  in
  let expect dst =
    Printf.sprintf "Runner: flow 1: 2 -> %d is not host to host on star-%d@10G"
      dst n
  in
  check Alcotest.string "dst is the switch" (expect n) (error n);
  check Alcotest.string "dst outside the fabric" (expect 999) (error 999);
  check Alcotest.string "host to host runs" "ran: 2/2" (error 3)

(* Flow starts go through a cursor that keeps only the next start
   queued, so a replayed trace must be sorted by start. One that is not
   is refused before the clock starts, naming the first flow out of
   order; equal starts are fine and keep their listed order. *)
let test_runner_rejects_unsorted () =
  let cfg = Config.testbed ~n_flows:3 () in
  let run starts =
    let trace =
      List.mapi
        (fun id start ->
           { Ppt_workload.Trace.id; src = id; dst = id + 1; size = 1000;
             start })
        starts
    in
    match Runner.run ~trace cfg Schemes.dctcp with
    | r -> Printf.sprintf "ran: %d/%d" r.Runner.completed r.Runner.requested
    | exception Runner.Invalid_trace msg -> msg
  in
  check Alcotest.string "a later flow listed first"
    "Runner: flow 2 starts at 100 ns, before the flow listed ahead of it \
     (5000 ns); the trace must be sorted by start"
    (run [ 0; 5_000; 100 ]);
  check Alcotest.string "equal starts run" "ran: 3/3" (run [ 0; 100; 100 ])

let suite =
  [ Alcotest.test_case "config: topology shapes" `Quick test_config_shapes;
    Alcotest.test_case "runner: all schemes complete" `Slow
      test_runner_completes_all_schemes;
    Alcotest.test_case "runner: determinism" `Quick test_runner_determinism;
    Alcotest.test_case "runner: fig8 determinism guard" `Slow
      test_fig8_determinism;
    Alcotest.test_case "runner: seed sensitivity" `Quick
      test_runner_seed_changes_result;
    Alcotest.test_case "runner: incast pattern" `Quick test_runner_incast;
    Alcotest.test_case "runner: rc3 lp cap" `Quick test_runner_lp_cap;
    Alcotest.test_case "runner: replayed endpoints must be hosts" `Quick
      test_runner_rejects_non_hosts;
    Alcotest.test_case "runner: replayed trace must be sorted by start"
      `Quick test_runner_rejects_unsorted;
    Alcotest.test_case "runner: efficiency bounds" `Quick
      test_runner_efficiency_bounds;
    Alcotest.test_case "ablation: scheduling direction" `Slow
      test_ablations_direction;
    Alcotest.test_case "paper shape: ppt beats dctcp" `Slow
      test_paper_shape_ppt_vs_dctcp;
    Alcotest.test_case "figures: registry" `Quick test_figures_registry;
    Alcotest.test_case "figures: unit decomposition" `Quick
      test_figures_units_unique;
    Alcotest.test_case "figures: static tables" `Quick
      test_static_tables_print ]
