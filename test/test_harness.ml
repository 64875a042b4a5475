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

(* A run's packets go with it: once [Runner.run] returns the arena is
   dropped, so no free packet is kept and the next packet made takes
   id 0 again. *)
let test_runner_drops_packet_arena () =
  let module Packet = Ppt_netsim.Packet in
  let before = Packet.make ~flow:0 ~src:0 ~dst:1 Packet.Data in
  ignore (Runner.run (tiny_cfg ()) Schemes.ppt);
  check Alcotest.int "no free packet kept" 0 (Packet.pool_size ());
  check Alcotest.bool "older packets are not current" false
    (Packet.is_current before);
  let p = Packet.make ~flow:0 ~src:0 ~dst:1 Packet.Data in
  check Alcotest.int "ids restart at 0" 0 p.Packet.id

(* Counts, not timings, on the benchmark's seed-1 fabric run (fig12's
   PPT shard: 800 web-search flows on the scaled leaf-spine). PPT's
   low-priority segments wait in the host NICs by the tens of
   thousands; parked, they hold no packet record, so the arena's
   high-water stays in the low thousands (37,852 while every waiting
   segment held one). And at the stop, inside the last completion
   handler, every packet the run made is accounted for once: a
   delivery is counted only once its handler returns, so the identity
   closes there too ([Runner.run]'s own audit runs after [Sim.run]
   returns, when every handler has finished).

   The queues' chunks follow what is queued: at the stop the ports
   hold 7,129 entries in 24,832 words of chunks, within the bound of
   each band's entries rounded up to chunks plus the one chunk each
   band in use keeps (24,928 words). Power-of-two rings that doubled
   and never shrank held 214,211 words there, past the bound. *)
let test_fabric_backlog_conserved () =
  let module Packet = Ppt_netsim.Packet in
  let module Net = Ppt_netsim.Net in
  let module Prio_queue = Ppt_netsim.Prio_queue in
  let module Context = Ppt_transport.Context in
  let cfg = Config.oversub ~scale:4 ~n_flows:800 ~load:0.5 ~seed:1 () in
  (* the words of chunks the ports hold, and their bound *)
  let storage net =
    let words = ref 0 and chunks = ref 0 in
    for nid = 0 to Net.n_nodes net - 1 do
      Array.iter
        (fun (port : Net.port) ->
           let q = port.Net.q in
           words := !words + Prio_queue.storage_words q;
           chunks := !chunks + Prio_queue.bands_held q;
           for prio = 0 to Prio_queue.n_prios - 1 do
             chunks :=
               !chunks
               + ((Prio_queue.length q prio + Prio_queue.chunk_entries - 1)
                  / Prio_queue.chunk_entries)
           done)
        (Net.node net nid).Net.ports
    done;
    (!words, !chunks * Prio_queue.chunk_words)
  in
  let at_stop = ref None in
  let r =
    Runner.run cfg Schemes.ppt ~observe:(fun ctx _ ->
        let finish = ctx.Context.on_complete in
        ctx.Context.on_complete <- (fun flow ->
            finish flow;
            if ctx.Context.completed = cfg.Config.n_flows then begin
              let net = ctx.Context.net in
              at_stop :=
                Some
                  ( Packet.made (),
                    [ Net.delivered net; Net.undeliverable net;
                      Net.total_drops net; Net.total_fault_drops net;
                      Packet.records () - Packet.pool_size ();
                      Net.parked net ],
                    Packet.records (),
                    storage net )
            end))
  in
  check Alcotest.int "every flow completed" cfg.Config.n_flows
    r.Runner.completed;
  match !at_stop with
  | None -> Alcotest.fail "the run never reached its stop"
  | Some (made, parts, high_water, (words, bound)) ->
    check Alcotest.int
      "made = delivered + undeliverable + drops + fault kills + records \
       in use + parked"
      made (List.fold_left ( + ) 0 parts);
    check Alcotest.bool
      (Printf.sprintf "packet-record high-water %d <= 2,500" high_water)
      true (high_water <= 2_500);
    check Alcotest.bool
      (Printf.sprintf "queue storage %d words <= %d" words bound)
      true (words <= bound)

(* A packet lost without a count fails the run, naming the scheme, the
   configuration and the seed: here one made and released by a probe
   that counts it nowhere. *)
let test_runner_audits_conservation () =
  let module Packet = Ppt_netsim.Packet in
  let cfg = tiny_cfg () in
  match
    Runner.run cfg Schemes.dctcp ~observe:(fun _ _ ->
        Packet.release (Packet.make ~flow:0 ~src:0 ~dst:1 Packet.Data))
  with
  | _ -> Alcotest.fail "a lost packet passed the audit"
  | exception Failure msg ->
    let made, accounted =
      Scanf.sscanf msg
        "Runner: dctcp on oversub-40/100G, seed 1: packets not conserved: \
         %d made, %d accounted for"
        (fun m a -> (m, a))
    in
    check Alcotest.int "one packet unaccounted for" (made - 1) accounted

(* A completed flow whose receiver took more or less than its size
   fails the run, naming the flow: here a record a probe adds, whose
   loops delivered 500 bytes short. *)
let test_runner_audits_delivered () =
  let cfg = tiny_cfg () in
  match
    Runner.run cfg Schemes.dctcp ~observe:(fun ctx _ ->
        Ppt_stats.Fct.add ctx.Ppt_transport.Context.fct
          { flow = 1_000; size = 5_000; start = 0; finish = 1; retrans = 0;
            hcp_payload = 5_000; lcp_payload = 0; hcp_delivered = 4_000;
            lcp_delivered = 500 })
  with
  | _ -> Alcotest.fail "a short delivery passed the audit"
  | exception Failure msg ->
    check Alcotest.string "the audit names the flow"
      "Runner: dctcp on oversub-40/100G, seed 1: flow 1000: delivered \
       4000+500 of 5000"
      msg

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

(* Schemes.all is the one table from name to scheme: names are unique
   and [find] returns the registered scheme itself. *)
let test_schemes_registry () =
  let names = List.map (fun s -> s.Schemes.s_name) Schemes.all in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
       check Alcotest.bool (s.Schemes.s_name ^ " found") true
         (match Schemes.find s.Schemes.s_name with
          | Some found -> found == s
          | None -> false))
    Schemes.all;
  check Alcotest.bool "unknown name rejected" true
    (Schemes.find "bogus" = None)

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

(* Simulations with equal keys are one run: the same scheme (the
   registered value itself, or the same hypothetical fill fraction),
   byte-equal marshalled configurations, the same low-priority buffer
   cap, probe and input run. Checked across every experiment at the
   default scale and at the one test/figures.t pins; fig28 and fig29
   declare the same six band-probed runs. *)
let test_sim_keys () =
  let same_scheme a b =
    match a, b with
    | Figures.Scheme x, Figures.Scheme y ->
      x.Schemes.s_name = y.Schemes.s_name
      && (match Schemes.find x.Schemes.s_name with
          | Some s -> x == s && y == s
          | None ->
            (* an unregistered variant: fig27's send buffers *)
            x.Schemes.s_trim = y.Schemes.s_trim
            && x.Schemes.s_collect_int = y.Schemes.s_collect_int
            && x.Schemes.s_sel_drop = y.Schemes.s_sel_drop
            && x.Schemes.s_buffer_override = y.Schemes.s_buffer_override)
    | Figures.Hypo f, Figures.Hypo g -> f = g
    | _ -> false
  in
  let marshalled (s : Figures.sim) =
    Marshal.to_string s.Figures.cfg [ Marshal.No_sharing ]
  in
  let rec same (a : Figures.sim) (b : Figures.sim) =
    same_scheme a.Figures.scheme b.Figures.scheme
    && marshalled a = marshalled b
    && a.Figures.lp_buffer_cap = b.Figures.lp_buffer_cap
    && a.Figures.probe = b.Figures.probe
    && (match a.Figures.needs, b.Figures.needs with
        | None, None -> true
        | Some x, Some y -> same x y
        | _ -> false)
  in
  let sims_of o id =
    match Figures.find id with
    | Some e ->
      List.concat_map (fun u -> u.Figures.u_sims) (e.Figures.e_units o)
    | None -> Alcotest.fail ("missing " ^ id)
  in
  List.iter
    (fun o ->
       let seen = Hashtbl.create 256 in
       let declared = ref 0 in
       let rec visit (s : Figures.sim) =
         incr declared;
         (match Hashtbl.find_opt seen s.Figures.key with
          | Some first ->
            check Alcotest.bool (s.Figures.key ^ ": one run") true
              (same first s)
          | None -> Hashtbl.add seen s.Figures.key s);
         Option.iter visit s.Figures.needs
       in
       List.iter
         (fun e -> List.iter visit (sims_of o e.Figures.e_id))
         Figures.all;
       check Alcotest.bool "experiments share runs" true
         (Hashtbl.length seen < !declared);
       let keys id = List.map (fun s -> s.Figures.key) (sims_of o id) in
       check Alcotest.(list string) "fig28 and fig29 share their runs"
         (keys "fig28") (keys "fig29");
       check Alcotest.int "six band-probed runs" 6
         (List.length (List.sort_uniq compare (keys "fig28"))))
    [ Figures.default_opts;
      { Figures.default_opts with Figures.flows_scale = 0.01 } ]

(* Each distinct simulation runs once, under whatever name a unit
   prints it: a hypothetical run reads the MWs of the plain DCTCP run
   its figure already has (fig2 reads fig12's, fig20 fig1's
   utilization-probed one), and fig27's 2 GB send buffer, PPT's
   default, is the plain PPT run. *)
let test_distinct_runs () =
  let opts = { Figures.default_opts with Figures.flows_scale = 0.01 } in
  let distinct ids =
    List.map
      (fun (s : Figures.sim) -> s.Figures.key)
      (Figures.distinct
         (List.concat_map
            (fun id -> (Option.get (Figures.find id)).Figures.e_units opts)
            ids))
  in
  List.iter
    (fun (ids, n) ->
       check Alcotest.int (String.concat " + " ids ^ ": distinct runs") n
         (List.length (distinct ids)))
    [ ([ "fig2" ], 4); ([ "fig1"; "fig20" ], 3); ([ "fig12"; "fig27" ], 9);
      ([ "fig3" ], 6) ];
  check Alcotest.bool "fig12's ppt run is fig27's 2 GB row" true
    (List.for_all
       (fun k -> List.mem k (distinct [ "fig27" ]))
       (List.filter
          (fun k -> String.starts_with ~prefix:"ppt/" k)
          (distinct [ "fig12" ])))

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

(* A run draws its flows from the generator as they start; launching
   the same flows from the list [Runner.flows] returns is the same run.
   Checked with PPT on a testbed memcached incast, and with DCTCP and
   PPT on the oversubscribed fabric, whose web-search flows PPT
   identifies from the run's random stream: a replay splits that
   stream as the generated run does. *)
let test_runner_streamed_equals_list () =
  let incast =
    { (Config.testbed ~n_flows:2_000 ~load:0.5 ()) with
      Config.pattern = Config.Incast { n_senders = 14 } }
    |> Config.with_workload ~name:"memcached" Ppt_workload.Dists.memcached
  in
  List.iter
    (fun ((cfg : Config.t), scheme) ->
       let flows = Runner.flows cfg in
       check Alcotest.int (cfg.Config.name ^ ": flows generated")
         cfg.Config.n_flows (List.length flows);
       let streamed = Runner.run cfg scheme in
       let listed = Runner.run ~trace:flows cfg scheme in
       let tag what = Printf.sprintf "%s: %s" cfg.Config.name what in
       check Alcotest.int (tag "all completed") cfg.Config.n_flows
         streamed.Runner.completed;
       check Alcotest.bool (tag "same records") true
         (streamed.Runner.records = listed.Runner.records);
       check Alcotest.int (tag "same events") streamed.Runner.events
         listed.Runner.events;
       check Alcotest.int (tag "same drops") streamed.Runner.drops
         listed.Runner.drops;
       check Alcotest.int (tag "same marks") streamed.Runner.marks
         listed.Runner.marks)
    [ (incast, Schemes.ppt);
      (Config.oversub ~n_flows:200 (), Schemes.dctcp);
      (Config.oversub ~n_flows:200 (), Schemes.ppt) ]

(* Shifting every flow start by a constant shifts every completion by
   the same amount: per flow, FCT, retransmissions and payload sent by
   each loop are the same, and so are the run's events, drops and
   marks. The shifts are not multiples of the scheduler's 64 ns
   buckets (12,345 mod 64 = 57, 1,000,000,007 mod 64 = 7), so every
   event lands at another offset in its bucket and crosses bucket
   boundaries elsewhere: a tier or tie-order mistake in [Sim] shows
   here. The config routes per flow; flowlet routing hashes [now / gap]
   and is not shift-invariant by design. *)
let test_runner_shift_invariance () =
  let cfg = Config.oversub ~scale:4 ~n_flows:60 ~seed:1 () in
  let flows = Runner.flows cfg in
  let per_flow (r : Runner.result) =
    List.sort compare
      (List.map
         (fun (f : Ppt_stats.Fct.record) ->
            (f.flow, f.finish - f.start, f.retrans, f.hcp_payload,
             f.lcp_payload))
         r.Runner.records)
  in
  List.iter
    (fun (scheme : Schemes.t) ->
       let base = Runner.run ~trace:flows cfg scheme in
       List.iter
         (fun shift ->
            let shifted =
              List.map
                (fun (s : Ppt_workload.Trace.spec) ->
                   { s with start = s.start + shift })
                flows
            in
            let r = Runner.run ~trace:shifted cfg scheme in
            let tag what =
              Printf.sprintf "%s, +%d ns: %s" scheme.Schemes.s_name shift
                what
            in
            check Alcotest.int (tag "all completed") cfg.Config.n_flows
              r.Runner.completed;
            check Alcotest.bool (tag "same per-flow FCT, retransmissions \
                                     and payloads")
              true (per_flow base = per_flow r);
            check Alcotest.int (tag "same events") base.Runner.events
              r.Runner.events;
            check Alcotest.int (tag "same drops") base.Runner.drops
              r.Runner.drops;
            check Alcotest.int (tag "same marks") base.Runner.marks
              r.Runner.marks)
         [ 12_345; 1_000_000_007 ])
    Schemes.all

let suite =
  [ Alcotest.test_case "config: topology shapes" `Quick test_config_shapes;
    Alcotest.test_case "runner: all schemes complete" `Slow
      test_runner_completes_all_schemes;
    Alcotest.test_case "runner: determinism" `Quick test_runner_determinism;
    Alcotest.test_case "runner: packet arena dropped after a run" `Quick
      test_runner_drops_packet_arena;
    Alcotest.test_case "runner: audits packet conservation" `Quick
      test_runner_audits_conservation;
    Alcotest.test_case "runner: audits delivered payload" `Quick
      test_runner_audits_delivered;
    Alcotest.test_case "runner: fabric backlog parked, packets conserved"
      `Slow test_fabric_backlog_conserved;
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
    Alcotest.test_case "runner: streamed launch equals list launch" `Quick
      test_runner_streamed_equals_list;
    Alcotest.test_case "runner: shifted starts shift every completion" `Quick
      test_runner_shift_invariance;
    Alcotest.test_case "runner: efficiency bounds" `Quick
      test_runner_efficiency_bounds;
    Alcotest.test_case "ablation: scheduling direction" `Slow
      test_ablations_direction;
    Alcotest.test_case "paper shape: ppt beats dctcp" `Slow
      test_paper_shape_ppt_vs_dctcp;
    Alcotest.test_case "figures: registry" `Quick test_figures_registry;
    Alcotest.test_case "schemes: registry" `Quick test_schemes_registry;
    Alcotest.test_case "figures: unit decomposition" `Quick
      test_figures_units_unique;
    Alcotest.test_case "figures: static tables" `Quick
      test_static_tables_print;
    Alcotest.test_case "figures: equal keys are one run" `Quick
      test_sim_keys;
    Alcotest.test_case "figures: each distinct run once" `Quick
      test_distinct_runs ]
