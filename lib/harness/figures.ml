(* One generator per table and figure of the paper's evaluation.

   Every generator prints the same rows/series the paper reports, at a
   reduced default scale (see DESIGN.md). The absolute numbers belong
   to this simulator; the comparisons — who wins, by roughly what
   factor, where the crossovers are — are the reproduction target, and
   EXPERIMENTS.md records them against the paper's claims.

   Each experiment is decomposed into an ordered list of *work units*
   (typically one per simulated scheme/configuration) whose rendered
   fragments concatenate to the experiment's full output. Rendering a
   figure serially and sweeping its units across worker processes
   (lib/sweep, `ppt_sim sweep`) therefore produce byte-identical
   output: both paths render every unit into its own buffer and emit
   the fragments in canonical unit order. *)

open Ppt_engine
open Ppt_netsim
open Ppt_workload
open Ppt_stats
open Ppt_transport

type opts = {
  flows_scale : float;   (* multiplies each experiment's flow count *)
  seed : int;
  full : bool;           (* full-size (144-host) fabrics *)
}

let default_opts = { flows_scale = 1.0; seed = 1; full = false }

let scaled o n = max 20 (int_of_float (float_of_int n *. o.flows_scale))
let fabric_scale o = if o.full then 9 else 4

(* ---------- work units ---------- *)

type unit_of_work = {
  u_name : string;                       (* unique within the figure *)
  u_render : Format.formatter -> unit;   (* runs its sims, prints its rows *)
}

let unit_ u_name u_render = { u_name; u_render }

(* Render one unit into its own fresh buffer. Both the serial path and
   the parallel sweep go through this, which is what makes their
   output byte-identical. *)
let render_unit u =
  let buf = Buffer.create 1024 in
  let bppf = Format.formatter_of_buffer buf in
  u.u_render bppf;
  Format.pp_print_flush bppf ();
  Buffer.contents buf

let render_units units ppf =
  List.iter
    (fun u -> Format.pp_print_string ppf (render_unit u))
    units

(* ---------- shared plumbing ---------- *)

let fct_cols = [ "overall"; "small-avg"; "small-p99"; "large-avg" ]

let fct_row ppf (r : Runner.result) =
  let s = r.Runner.summary in
  Table.row ppf r.Runner.r_scheme
    [ s.Fct.overall_avg; s.Fct.small_avg; s.Fct.small_p99;
      s.Fct.large_avg ];
  if r.Runner.completed < r.Runner.requested then
    Format.fprintf ppf "  (!) %s: only %d/%d flows completed@\n"
      r.Runner.r_scheme r.Runner.completed r.Runner.requested

let section ppf fmt = Format.fprintf ppf ("@\n== " ^^ fmt ^^ " ==@\n")

let title s ppf = section ppf "%s" s

(* The scaled leaf-spine fabric: [mk] (by default the oversubscribed
   one) at the fabric scale and seed of [o], carrying [n_flows] scaled
   by [o]. *)
let fabric ?(mk = Config.oversub) ?(load = 0.5) o n_flows =
  mk ~scale:(fabric_scale o) ~n_flows:(scaled o n_flows) ~load
    ~seed:o.seed ()

(* The unit that opens a table: [head] (a section title, say), then
   the column header. *)
let head_unit ?(prefix = "") ?(cols = fct_cols) head =
  unit_ (prefix ^ "head") (fun ppf -> head ppf; Table.header ppf cols)

(* A table of schemes over one configuration: its head unit, then one
   unit per scheme running it over [cfg] and printing its [row]. *)
let table ?(prefix = "") ?cols ?(row = fct_row) head cfg schemes =
  head_unit ~prefix ?cols head
  :: List.map
       (fun s ->
          unit_ (prefix ^ s.Schemes.s_name) (fun ppf ->
              row ppf (Runner.run cfg s)))
       schemes

(* Bottleneck-utilization probe towards the last host of the fabric
   (the receiver of the 2-to-1 dumbbell). Samples every [interval];
   each sample also notes whether any flow was active, so utilization
   can be reported over demand (busy) periods — the paper's Fig. 1
   measures "when DCTCP enters a steady state", i.e. while there is
   work to send. *)
let utilization_series ctx (topo : Topology.built)
    ~interval ~from_t ~until =
  let hosts = topo.Topology.hosts in
  let receiver = hosts.(Array.length hosts - 1) in
  let node, pix = topo.Topology.to_host_port receiver in
  let port = Net.port ctx.Context.net node pix in
  let probe =
    Series.utilization_probe ~rate:port.Net.rate ~interval (fun () ->
        port.Net.tx_bytes)
  in
  (* reset the byte baseline just before the first real sample *)
  ignore (Sim.schedule_at ctx.Context.sim (from_t - interval) (fun () ->
      ignore (probe ())));
  let util = Series.create () and active = Series.create () in
  let rec tick at () =
    if at <= until then begin
      Series.record util ~at (probe ());
      Series.record active ~at
        (if ctx.Context.started > ctx.Context.completed then 1. else 0.);
      ignore
        (Sim.schedule_at ctx.Context.sim (at + interval)
           (tick (at + interval)))
    end
  in
  ignore (Sim.schedule_at ctx.Context.sim from_t (tick from_t));
  (util, active)

(* Smooth a utilization trace over [window] consecutive samples. *)
let smooth ~window vals =
  let arr = Array.of_list vals in
  let n = Array.length arr in
  List.init (max 0 (n - window + 1)) (fun i ->
      let sum = ref 0. in
      for j = i to i + window - 1 do sum := !sum +. arr.(j) done;
      !sum /. float_of_int window)

let util_stats (util, active) =
  let us = Series.values util and acts = Series.values active in
  let busy =
    List.filter_map
      (fun (u, a) -> if a > 0.5 then Some u else None)
      (List.combine us acts)
  in
  let mean xs =
    match xs with
    | [] -> nan
    | _ ->
      List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let busy_smooth = smooth ~window:10 busy in
  let frac_below thr xs =
    match xs with
    | [] -> nan
    | _ ->
      float_of_int (List.length (List.filter (fun v -> v < thr) xs))
      /. float_of_int (List.length xs)
  in
  (mean us, mean busy, List.fold_left min infinity busy_smooth,
   frac_below 0.5 busy_smooth, busy_smooth)

let pp_util_summary ppf name stats =
  let mean_all, busy_mean, busy_min, frac_half, _trace = stats in
  Table.row ppf name
    [ 100. *. mean_all; 100. *. busy_mean; 100. *. busy_min;
      100. *. frac_half ]

(* Fig. 1 / Fig. 20 setting: continuous 2-to-1 web-search traffic at
   0.5 load on a 40G bottleneck, utilization sampled every 100us and
   smoothed over 1ms. *)
let util_config o =
  Config.dumbbell ~n_flows:(scaled o 400) ~load:0.5 ~seed:o.seed ()

let util_experiment o scheme =
  let _r, series =
    Runner.run_observed (util_config o) scheme ~probe:(fun ctx topo ->
        utilization_series ctx topo ~interval:(Units.us 100)
          ~from_t:(Units.ms 10) ~until:(Units.ms 200))
  in
  util_stats series

let util_cols =
  [ "mean-%"; "busy-mean-%"; "busy-min-%"; "busy<50% fr" ]

(* ---------- hypothetical-DCTCP two-pass helpers ---------- *)

let hypo_schemes ?(fractions = [ 1.0 ]) cfg =
  (* pass 1: plain DCTCP records each flow's maximum window *)
  let table, recorder = Hypothetical.record_pass () in
  ignore (Runner.run cfg (Schemes.plain "dctcp-rec" recorder));
  List.map
    (fun fill_fraction ->
       Schemes.plain
         (if fill_fraction = 1.0 then "hypo-dctcp"
          else Printf.sprintf "hypo-%.2fxMW" fill_fraction)
         (Hypothetical.make ~fill_fraction ~mw_table:table ()))
    fractions

(* ====================================================================
   Figures
   ==================================================================== *)

(* Fig. 1: DCTCP link utilization fluctuates far below the offered
   load at 0.5. *)
let fig1 o ppf =
  section ppf
    "fig1: DCTCP bottleneck utilization, 2-to-1 at 40G, web search, \
     0.5 load";
  let stats = util_experiment o Schemes.dctcp in
  Table.header ppf util_cols;
  pp_util_summary ppf "dctcp" stats;
  let _, _, _, _, trace = stats in
  Format.fprintf ppf
    "@\nbusy-period utilization trace (%%, 1ms-smoothed):@\n";
  List.iteri
    (fun i v ->
       if i < 60 then
         Format.fprintf ppf "%s%4.0f"
           (if i > 0 && i mod 15 = 0 then "\n" else " ")
           (100. *. v))
    trace;
  Format.fprintf ppf "@\n"

(* Fig. 2: the hypothetical DCTCP beats Homa and NDP on overall FCT. *)
let fig2_units o =
  let cfg = fabric o 800 in
  let overall_row ppf (r : Runner.result) =
    Table.row ppf r.Runner.r_scheme [ r.Runner.summary.Fct.overall_avg ]
  in
  table ~cols:[ "overall-avg-ms" ] ~row:overall_row
    (title
       "fig2: overall avg FCT, hypothetical DCTCP vs proactive transports \
        (web search, 0.5)")
    cfg [ Schemes.dctcp; Schemes.homa; Schemes.ndp ]
  @ [ unit_ "hypo-dctcp" (fun ppf ->
        (* two-pass: the recorder run happens inside this unit *)
        List.iter
          (fun s -> overall_row ppf (Runner.run cfg s))
          (hypo_schemes cfg)) ]

(* Fig. 3: filling the gap to x * MW; 1.0 is the sweet spot. Kept as a
   single unit: every row is reported relative to the 1.0xMW run. *)
let fig3 o ppf =
  section ppf "fig3: filling the gap to a fraction of MW (data mining, 0.6)";
  let cfg =
    fabric ~load:0.6 o 250
    |> Config.with_workload ~name:"data-mining" Dists.data_mining
  in
  let schemes =
    hypo_schemes ~fractions:[ 0.5; 0.75; 1.0; 1.25; 1.5 ] cfg
  in
  let results = List.map (fun s -> Runner.run cfg s) schemes in
  let base =
    match List.nth_opt results 2 with
    | Some r -> r.Runner.summary.Fct.overall_avg
    | None -> nan
  in
  Table.header ppf [ "overall-avg-ms"; "vs 1.0xMW" ];
  List.iter
    (fun (r : Runner.result) ->
       let v = r.Runner.summary.Fct.overall_avg in
       Table.row ppf r.Runner.r_scheme [ v; v /. base ])
    results

(* Figs. 8/9: testbed 15-to-15 FCT statistics across loads. *)
let testbed_loads_units o ~title:t ~workload ~workload_name ~n_flows =
  unit_ "head" (title t)
  :: List.concat_map
       (fun load ->
          let cfg =
            Config.testbed ~n_flows:(scaled o n_flows) ~load ~seed:o.seed ()
            |> Config.with_workload ~name:workload_name workload
          in
          table ~prefix:(Printf.sprintf "load%.1f/" load)
            (fun ppf ->
               Format.fprintf ppf "@\n-- %s, load %.1f --@\n" workload_name
                 load)
            cfg Schemes.testbed_set)
       [ 0.3; 0.5; 0.7; 0.9 ]

let fig8_units o =
  testbed_loads_units o ~title:"fig8: testbed 15-to-15, web search"
    ~workload:Dists.web_search ~workload_name:"web-search" ~n_flows:250

let fig9_units o =
  testbed_loads_units o ~title:"fig9: testbed 15-to-15, data mining"
    ~workload:Dists.data_mining ~workload_name:"data-mining" ~n_flows:120

(* Figs. 10/11: testbed 14-to-1 incast at 0.5 load. *)
let testbed_incast o ~workload ~workload_name ~n_flows =
  { (Config.testbed ~n_flows:(scaled o n_flows) ~load:0.5 ~seed:o.seed ())
    with Config.pattern = Config.Incast { n_senders = 14 } }
  |> Config.with_workload ~name:workload_name workload

let fig10_units o =
  table (title "fig10: testbed 14-to-1 incast, web search, 0.5 load")
    (testbed_incast o ~workload:Dists.web_search ~workload_name:"web-search"
       ~n_flows:250)
    Schemes.testbed_set

let fig11_units o =
  table (title "fig11: testbed 14-to-1 incast, data mining, 0.5 load")
    (testbed_incast o ~workload:Dists.data_mining
       ~workload_name:"data-mining" ~n_flows:120)
    Schemes.testbed_set

(* Figs. 12/13: the large-scale six-scheme comparison. *)
let fig12_units o =
  table
    (title
       "fig12: large-scale simulation (oversubscribed 40/100G), web search, \
        0.5 load")
    (fabric o 800) Schemes.headline

let fig13_units o =
  table
    (title
       "fig13: large-scale simulation (oversubscribed 40/100G), data \
        mining, 0.5 load")
    (fabric o 300
     |> Config.with_workload ~name:"data-mining" Dists.data_mining)
    Schemes.headline

(* Fig. 14: PPT's design on a delay-based (Swift-like) transport. *)
let fig14_units o =
  table (title "fig14: PPT on a delay-based transport (web search, 0.5)")
    (fabric o 800) [ Schemes.swift; Schemes.ppt_swift ]

(* Figs. 15-18: component ablations on the web-search fabric. *)
let ablation_units ?(show_without_dt = false) o ~title:t variant =
  let cfg = fabric o 800 in
  table (title t) cfg [ Schemes.ppt; variant ]
  @ (if show_without_dt then
       (* Our switches also run dynamic-threshold buffer sharing, which
          shields HCP from a misbehaving LCP; with a purely shared
          buffer (the paper's switch model) the component's value shows
          fully. *)
       table ~prefix:"nodt/"
         (fun ppf ->
            Format.fprintf ppf
              "-- same, without dynamic-threshold buffer sharing --@\n")
         { cfg with Config.dt = false } [ Schemes.ppt; variant ]
     else [])

let fig15_units o =
  ablation_units ~show_without_dt:true o
    ~title:"fig15: effect of ECN for the LCP loop" Schemes.ppt_no_lcp_ecn

let fig16_units o =
  ablation_units ~show_without_dt:true o
    ~title:"fig16: effect of exponential window decreasing"
    Schemes.ppt_no_ewd

let fig17_units o =
  ablation_units o
    ~title:"fig17: effect of buffer-aware flow scheduling"
    Schemes.ppt_no_sched

let fig18_units o =
  ablation_units o
    ~title:"fig18: effect of buffer-aware flow identification"
    Schemes.ppt_no_ident

(* Fig. 19: kernel datapath overhead proxy (operations per host per
   second) for PPT vs DCTCP across loads. *)
let fig19_units o =
  head_unit ~cols:[ "dctcp-kops/s"; "ppt-kops/s"; "ppt/dctcp" ]
    (title
       "fig19: datapath operation rate (CPU overhead proxy), testbed, web \
        search")
  :: List.map
       (fun load ->
          unit_ (Printf.sprintf "load%.1f" load) (fun ppf ->
              let cfg =
                Config.testbed ~n_flows:(scaled o 250) ~load ~seed:o.seed
                  ()
              in
              let d = Runner.run cfg Schemes.dctcp in
              let p = Runner.run cfg Schemes.ppt in
              Table.row ppf
                (Printf.sprintf "load %.1f" load)
                [ d.Runner.ops_per_host_sec /. 1e3;
                  p.Runner.ops_per_host_sec /. 1e3;
                  p.Runner.ops_per_host_sec /. d.Runner.ops_per_host_sec ]))
       [ 0.3; 0.5; 0.7; 0.9 ]

(* Fig. 20: PPT sustains the utilization the hypothetical DCTCP
   achieves; plain DCTCP dips far below. *)
let fig20_units o =
  let util_row scheme ppf =
    pp_util_summary ppf scheme.Schemes.s_name (util_experiment o scheme)
  in
  [ head_unit ~cols:util_cols
      (title
         "fig20: bottleneck utilization, 2-to-1 at 40G, web search, 0.5 \
          load");
    unit_ "dctcp" (util_row Schemes.dctcp);
    unit_ "ppt" (util_row Schemes.ppt);
    unit_ "hypo-dctcp" (fun ppf ->
        util_row (List.hd (hypo_schemes (util_config o))) ppf) ]

(* Fig. 21: the Facebook Memcached workload (all flows <= 100KB). *)
let fig21_units o =
  let small_row ppf (r : Runner.result) =
    let s = r.Runner.summary in
    Table.row ppf r.Runner.r_scheme [ s.Fct.small_avg; s.Fct.small_p99 ]
  in
  table ~cols:[ "small-avg-ms"; "small-p99-ms" ] ~row:small_row
    (title "fig21: Memcached workload (W1), 0.5 load")
    (fabric o 4000
     |> Config.with_workload ~name:"memcached" Dists.memcached)
    Schemes.headline

(* Fig. 22: the 100/400G fabric. *)
let fig22_units o =
  table (title "fig22: 100/400G topology, web search, 0.5 load")
    (fabric ~mk:Config.fast o 800) Schemes.headline

(* Fig. 23: N-to-1 incast sweep. *)
let fig23_units o =
  let cfg0 = fabric ~load:0.6 o 300 in
  let n_hosts = Config.n_hosts cfg0 in
  let ns =
    List.filter (fun n -> n < n_hosts)
      (if o.full then [ 32; 64; 128; 143 ] else [ 8; 16; 31 ])
  in
  let schemes =
    [ Schemes.ppt; Schemes.ndp; Schemes.homa; Schemes.aeolus;
      Schemes.dctcp ]
  in
  head_unit ~cols:(List.map (Printf.sprintf "N=%d") ns)
    (title "fig23: incast, web search, 0.6 load (overall avg FCT)")
  :: List.map
       (fun scheme ->
          unit_ scheme.Schemes.s_name (fun ppf ->
              let vals =
                List.map
                  (fun n ->
                     let cfg =
                       { cfg0 with
                         Config.pattern =
                           Config.Incast { n_senders = n } }
                     in
                     (Runner.run cfg scheme).Runner.summary
                       .Fct.overall_avg)
                  ns
              in
              Table.row ppf scheme.Schemes.s_name vals))
       schemes

(* Fig. 24: RC3 with its low-priority buffer capped. *)
let fig24_units o =
  let cfg = fabric o 800 in
  head_unit
    (title
       "fig24: RC3 with capped low-priority buffer vs PPT (web search, \
        0.5)")
  :: List.map
       (fun frac ->
          unit_ (Printf.sprintf "rc3-lp%d" (int_of_float (frac *. 100.)))
            (fun ppf ->
               let cap =
                 int_of_float (frac *. float_of_int cfg.Config.buffer_bytes)
               in
               let scheme =
                 { Schemes.rc3 with
                   Schemes.s_name =
                     Printf.sprintf "rc3-lp%d%%"
                       (int_of_float (frac *. 100.)) }
               in
               fct_row ppf (Runner.run ~lp_buffer_cap:cap cfg scheme)))
       [ 0.2; 0.4; 0.6; 0.8 ]
  @ [ unit_ "ppt" (fun ppf -> fct_row ppf (Runner.run cfg Schemes.ppt)) ]

(* Fig. 25: PIAS and HPCC. *)
let fig25_units o =
  table (title "fig25: PPT vs PIAS and HPCC (web search, 0.5)")
    (fabric o 800) [ Schemes.hpcc; Schemes.pias; Schemes.ppt ]

(* Fig. 26: the non-oversubscribed fabric. *)
let fig26_units o =
  table (title "fig26: non-oversubscribed topology, web search, 0.5 load")
    (fabric ~mk:Config.non_oversub o 800) Schemes.headline

(* Fig. 27: TCP send-buffer sensitivity. *)
let fig27_units o =
  table
    (title "fig27: PPT under different send-buffer sizes (web search, 0.5)")
    (fabric o 800)
    (List.map Schemes.ppt_sendbuf
       [ Units.kb 128; Units.mb 2; Units.mb 4; Units.mb 2000 ])

(* Figs. 28/29 setting: 2-to-1 at 40G with a 120KB buffer and the same
   ECN threshold on both bands, at 60% / 80% of the buffer. *)
let buffer_experiment o ~thresh_frac scheme =
  let buffer = Units.kb 120 in
  let k = int_of_float (thresh_frac *. float_of_int buffer) in
  let cfg =
    Config.dumbbell ~n_flows:(scaled o 300) ~load:0.8 ~seed:o.seed
      ~delay:(Units.us 2) ~buffer_bytes:buffer ~hp_thresh:k ~lp_thresh:k ()
  in
  Runner.run_observed cfg scheme ~probe:(fun ctx topo ->
      let hosts = topo.Topology.hosts in
      let receiver = hosts.(Array.length hosts - 1) in
      let node, pix = topo.Topology.to_host_port receiver in
      let port = Net.port ctx.Context.net node pix in
      let hp = Series.create () and lp = Series.create () in
      let rec sample () =
        let now = Sim.now ctx.Context.sim in
        Series.record hp ~at:now
          (float_of_int (Prio_queue.hp_bytes port.Net.q));
        Series.record lp ~at:now
          (float_of_int (Prio_queue.lp_bytes port.Net.q));
        if now < Units.ms 100 then
          ignore
            (Sim.schedule ctx.Context.sim ~after:(Units.us 10) sample)
      in
      ignore (Sim.schedule_at ctx.Context.sim 0 sample);
      (hp, lp))

let buffer_schemes = [ Schemes.dctcp; Schemes.rc3; Schemes.ppt ]

let buffer_sweep_units ~render_one =
  List.concat_map
    (fun thresh_frac ->
       let prefix = Printf.sprintf "t%.0f/" (100. *. thresh_frac) in
       unit_ (prefix ^ "head") (fun ppf ->
           Format.fprintf ppf "-- ECN threshold at %.0f%% of buffer --@\n"
             (100. *. thresh_frac))
       :: List.map
            (fun scheme ->
               unit_ (prefix ^ scheme.Schemes.s_name) (fun ppf ->
                   render_one ppf ~thresh_frac scheme))
            buffer_schemes)
    [ 0.6; 0.8 ]

let fig28_units o =
  head_unit ~cols:[ "hp-mean-KB"; "lp-mean-KB"; "lp-share-%" ]
    (title
       "fig28: buffer occupancy split by priority band, ECN = 60%/80% of \
        a 120KB buffer")
  :: buffer_sweep_units ~render_one:(fun ppf ~thresh_frac scheme ->
      let _r, (hp, lp) = buffer_experiment o ~thresh_frac scheme in
      let hp_m = Series.mean hp and lp_m = Series.mean lp in
      let share =
        if hp_m +. lp_m = 0. then 0.
        else 100. *. lp_m /. (hp_m +. lp_m)
      in
      Table.row ppf scheme.Schemes.s_name
        [ hp_m /. 1e3; lp_m /. 1e3; share ])

let fig29_units o =
  head_unit ~cols:[ "overall-eff"; "low-prio-eff" ]
    (title
       "fig29: transfer efficiency (received bytes / sent bytes), same \
        setting as fig28")
  :: buffer_sweep_units ~render_one:(fun ppf ~thresh_frac scheme ->
      let r, _series = buffer_experiment o ~thresh_frac scheme in
      Table.row ppf scheme.Schemes.s_name
        [ r.Runner.efficiency; r.Runner.lp_efficiency ])

(* ====================================================================
   Tables
   ==================================================================== *)

let tab1 _o ppf =
  section ppf "tab1: qualitative comparison of transports (paper Table 1)";
  let cols =
    [ "spare-bw"; "sched-wo-size"; "commodity"; "tcp-compat"; "no-app-mod" ]
  in
  Table.header ~label_width:14 ppf cols;
  List.iter
    (fun (name, row) -> Table.text_row ~label_width:14 ppf name row)
    [ ("dctcp", [ "passive"; "x"; "yes"; "yes"; "yes" ]);
      ("tcp-10", [ "passive"; "x"; "yes"; "yes"; "yes" ]);
      ("halfback", [ "passive"; "x"; "yes"; "yes"; "yes" ]);
      ("rc3", [ "aggressive"; "x"; "yes"; "yes"; "yes" ]);
      ("pias", [ "passive"; "yes"; "yes"; "yes"; "yes" ]);
      ("hpcc", [ "graceful*"; "x"; "no"; "no"; "yes" ]);
      ("homa", [ "aggressive"; "no"; "yes"; "no"; "no" ]);
      ("aeolus", [ "aggressive"; "no"; "yes"; "no"; "no" ]);
      ("expresspass", [ "passive"; "x"; "yes"; "no"; "no" ]);
      ("ndp", [ "passive"; "x"; "no"; "no"; "no" ]);
      ("ppt", [ "graceful"; "yes"; "yes"; "yes"; "yes" ]) ];
  Format.fprintf ppf "(* graceful but requires INT from switches)@\n"

let tab2 _o ppf =
  section ppf "tab2: flow-size statistics of the workloads (paper Table 2)";
  Table.header ppf [ "small-%"; "large-%"; "avg-size-MB" ];
  List.iter
    (fun { Dists.dist_name; cdf } ->
       let small = Cdf.fraction_below cdf Dists.small_flow_cutoff in
       Table.row ppf dist_name
         [ 100. *. small; 100. *. (1. -. small); Cdf.mean cdf /. 1e6 ])
    Dists.all

let tab3 _o ppf =
  section ppf "tab3: testbed parameters (paper Table 3)";
  let cfg = Config.testbed () in
  let kv k v = Format.fprintf ppf "  %-34s %s@\n" k v in
  kv "topology" "15 hosts, one switch (Dell S4048 model)";
  kv "per-port switch buffer"
    (Printf.sprintf "%d KB (~50MB / 54 ports)"
       (cfg.Config.buffer_bytes / 1000));
  kv "link speed" "10 Gbps";
  kv "base RTT" "~80 us";
  kv "RTO_min" (Printf.sprintf "%.0f ms" (Units.to_ms cfg.Config.rto_min));
  kv "RTTbytes for Homa" "50 KB (the context BDP)";
  kv "overcommitment degree for Homa" (string_of_int Homa.overcommit);
  kv "DCTCP / HCP ECN threshold"
    (match cfg.Config.hp_thresh with
     | Some k -> Printf.sprintf "%d KB" (k / 1000)
     | None -> "off");
  kv "LCP ECN threshold"
    (match cfg.Config.lp_thresh with
     | Some k -> Printf.sprintf "%d KB" (k / 1000)
     | None -> "off");
  kv "identification threshold" "100 KB"

let tab4 _o ppf =
  section ppf
    "tab4: Homa/Linux stack size (paper Table 4; data from the paper, \
     motivates PPT's ~400-LoC deployability claim)";
  Table.header ~label_width:26 ppf [ "LoC"; "share-%" ];
  List.iter
    (fun (m, loc, pct) ->
       Table.text_row ~label_width:26 ppf m
         [ string_of_int loc; Printf.sprintf "%.1f" pct ])
    [ ("user API", 1900, 15.0);
      ("transport control", 2800, 22.0);
      ("GRO/GSO", 400, 3.1);
      ("state management", 700, 5.5);
      ("memory management", 300, 2.4);
      ("timeout retransmission", 300, 2.4);
      ("other", 6300, 49.6) ]

let tab5 _o ppf =
  section ppf
    "tab5: application changes needed for Homa/Linux (paper Table 5; \
     data from the paper)";
  Table.header ~label_width:30 ppf [ "LoC"; "modified" ];
  List.iter
    (fun (m, loc, changed) ->
       Table.text_row ~label_width:30 ppf m
         [ string_of_int loc; (if changed then "yes" else "no") ])
    [ ("socket", 2080, true);
      ("HTTP header processing", 1516, false);
      ("RPC", 975, true);
      ("RAFT consensus", 1365, false);
      ("coroutine synchronization", 145, false);
      ("IO", 393, true);
      ("other", 1694, false) ]

(* ====================================================================
   Extensions beyond the paper's figures
   ==================================================================== *)

(* Every Table-1 transport on the headline fabric: the full landscape
   the paper's Table 1 describes qualitatively, measured. *)
let ext1_units o =
  table
    (title
       "ext1: all Table-1 transports, web search, 0.5 load \
        (oversubscribed fabric)")
    (fabric o 600) Schemes.table1_set

(* §6.3 sensitivity: PPT works under a wide range of LCP ECN marking
   thresholds (the lambda parameter of Eq. 3). *)
let ext2_units o =
  head_unit
    (title "ext2: PPT sensitivity to the LCP ECN threshold (lambda sweep)")
  :: List.map
       (fun lp_kb ->
          unit_ (Printf.sprintf "lpK%d" lp_kb) (fun ppf ->
              let cfg =
                { (fabric o 500) with
                  Config.lp_thresh = Some (Units.kb lp_kb) }
              in
              let r = Runner.run cfg Schemes.ppt in
              fct_row ppf
                { r with
                  Runner.r_scheme =
                    Printf.sprintf "ppt-lpK=%dKB" lp_kb }))
       [ 24; 48; 86; 110 ]

(* Appendix B: PPT's LCP as a building block for the INT-based HPCC. *)
let ext3_units o =
  table (title "ext3: PPT's design on HPCC (appendix B), web search, 0.5")
    (fabric o 500) [ Schemes.hpcc; Schemes.ppt_hpcc ]

(* Load balancing is orthogonal to the transport (appendix C): compare
   classic per-flow ECMP against LetFlow-style flowlet switching and
   NDP-style per-packet spraying on the oversubscribed fabric. *)
let ext4_units o =
  head_unit
    (title
       "ext4: load balancing (ECMP / flowlet / packet spray), web search, \
        0.5 load")
  :: List.concat_map
       (fun (key, label, routing) ->
          let cfg = { (fabric o 500) with Config.routing } in
          unit_ (key ^ "/head") (fun ppf ->
              Format.fprintf ppf "-- %s --@\n" label)
          :: List.map
               (fun s ->
                  unit_ (key ^ "/" ^ s.Schemes.s_name) (fun ppf ->
                      fct_row ppf (Runner.run cfg s)))
               [ Schemes.ppt; Schemes.dctcp ])
       [ ("ecmp", "per-flow ECMP", Topology.Per_flow);
         ("flowlet", "flowlet (gap = 50us)",
          Topology.Flowlet { gap = Units.us 50 });
         ("spray", "per-packet spray", Topology.Per_packet) ]

(* Normalized FCT (slowdown) and Jain fairness: the Homa-style view of
   the same headline comparison. *)
let ext5_units o =
  let slowdown_row ppf (r : Runner.result) =
    let fct = Fct.create () in
    List.iter (Fct.add fct) r.Runner.records;
    let rate = r.Runner.edge_rate and base_rtt = r.Runner.base_rtt in
    let mean, p99 = Fct.slowdown_stats ~rate ~base_rtt fct in
    let _, small_p99 =
      Fct.slowdown_stats ~hi:Dists.small_flow_cutoff ~rate ~base_rtt fct
    in
    Table.row ppf r.Runner.r_scheme
      [ mean; p99; small_p99; Fct.jain_fairness fct ]
  in
  table ~cols:[ "mean-slwdn"; "p99-slwdn"; "small-p99-s"; "jain" ]
    ~row:slowdown_row
    (title
       "ext5: slowdown (normalized FCT) and fairness, web search, 0.5 load")
    (fabric o 500)
    [ Schemes.ppt; Schemes.dctcp; Schemes.homa; Schemes.ndp ]

(* Fault tolerance: the canonical chaos scenarios of lib/faults (link
   flap, spine BER, transient delay spike, paused receiver) against the
   chaos transport set. Completion must stay at 100% for every
   scenario; the FCT columns show what each recovery costs. *)
let chaos_units o =
  let base = fabric o 200 in
  let receiver = Config.n_hosts base - 1 in
  let spike =
    (* ~10x the pristine one-way path delay *)
    match base.Config.topo with
    | Config.Leaf_spine { edge_delay; core_delay; _ } ->
      9 * 2 * (edge_delay + core_delay)
    | Config.Star { delay; _ } -> 9 * 2 * delay
  in
  let scenarios =
    ("none", "")
    :: Ppt_faults.Fault_spec.scenarios ~receiver ~spike ~core:true
  in
  unit_ "head" (fun ppf ->
      section ppf
        "chaos: canonical fault scenarios (oversubscribed fabric), web \
         search, 0.5 load";
      Format.fprintf ppf "%-12s %-8s %11s %12s %10s %10s@\n" "scenario"
        "scheme" "completed" "fault-drops" "avg-fct" "small-p99")
  :: List.concat_map
       (fun (name, spec_s) ->
          List.map
            (fun scheme ->
               unit_ (name ^ "/" ^ scheme.Schemes.s_name) (fun ppf ->
                   let spec =
                     match Ppt_faults.Fault_spec.of_string spec_s with
                     | Ok s -> s
                     | Error e ->
                       failwith ("chaos scenario " ^ name ^ ": " ^ e)
                   in
                   let r =
                     Runner.run (Config.with_faults spec base) scheme
                   in
                   Format.fprintf ppf
                     "%-12s %-8s %5d/%-5d %12d %10.3f %10.3f@\n" name
                     r.Runner.r_scheme r.Runner.completed
                     r.Runner.requested r.Runner.fault_drops
                     r.Runner.summary.Fct.overall_avg
                     r.Runner.summary.Fct.small_p99))
            Schemes.chaos_set)
       scenarios

(* ---------- registry ---------- *)

type experiment = {
  e_id : string;
  e_descr : string;
  e_units : opts -> unit_of_work list;
}

(* An undecomposed experiment: one unit running the whole generator. *)
let whole f = fun o -> [ unit_ "all" (fun ppf -> f o ppf) ]

let exp_ e_id e_descr e_units = { e_id; e_descr; e_units }

let all : experiment list =
  [ exp_ "tab1" "qualitative transport comparison" (whole tab1);
    exp_ "tab2" "workload flow-size statistics" (whole tab2);
    exp_ "tab3" "testbed parameters" (whole tab3);
    exp_ "tab4" "Homa/Linux stack LoC" (whole tab4);
    exp_ "tab5" "app changes for Homa/Linux" (whole tab5);
    exp_ "fig1" "DCTCP utilization fluctuation" (whole fig1);
    exp_ "fig2" "hypothetical DCTCP vs proactive" fig2_units;
    exp_ "fig3" "fill-to-fraction-of-MW sweep" (whole fig3);
    exp_ "fig8" "testbed 15-to-15 web search" fig8_units;
    exp_ "fig9" "testbed 15-to-15 data mining" fig9_units;
    exp_ "fig10" "testbed 14-to-1 web search" fig10_units;
    exp_ "fig11" "testbed 14-to-1 data mining" fig11_units;
    exp_ "fig12" "large-scale web search" fig12_units;
    exp_ "fig13" "large-scale data mining" fig13_units;
    exp_ "fig14" "PPT over delay-based transport" fig14_units;
    exp_ "fig15" "ablation: ECN for LCP" fig15_units;
    exp_ "fig16" "ablation: EWD" fig16_units;
    exp_ "fig17" "ablation: flow scheduling" fig17_units;
    exp_ "fig18" "ablation: flow identification" fig18_units;
    exp_ "fig19" "datapath overhead proxy" fig19_units;
    exp_ "fig20" "utilization: PPT vs hypothetical" fig20_units;
    exp_ "fig21" "memcached workload" fig21_units;
    exp_ "fig22" "100/400G topology" fig22_units;
    exp_ "fig23" "incast sweep" fig23_units;
    exp_ "fig24" "RC3 with capped low-prio buffer" fig24_units;
    exp_ "fig25" "PPT vs PIAS and HPCC" fig25_units;
    exp_ "fig26" "non-oversubscribed topology" fig26_units;
    exp_ "fig27" "send-buffer sensitivity" fig27_units;
    exp_ "fig28" "buffer occupancy by band" fig28_units;
    exp_ "fig29" "transfer efficiency" fig29_units;
    exp_ "ext1" "all Table-1 transports measured" ext1_units;
    exp_ "ext2" "LCP ECN-threshold sensitivity" ext2_units;
    exp_ "ext3" "PPT over HPCC (appendix B)" ext3_units;
    exp_ "ext4" "load balancing modes" ext4_units;
    exp_ "ext5" "slowdown and fairness view" ext5_units;
    exp_ "chaos" "fault injection: canonical chaos scenarios" chaos_units ]

let find id = List.find_opt (fun e -> e.e_id = id) all

(* Serial rendering: every unit in canonical order, each through its
   own buffer — the reference output a parallel sweep must reproduce
   byte for byte. *)
let render e o ppf = render_units (e.e_units o) ppf
