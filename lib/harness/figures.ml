(* One generator per table and figure of the paper's evaluation.

   Every generator prints the same rows/series the paper reports, at a
   reduced default scale (see DESIGN.md). The absolute numbers belong
   to this simulator; the comparisons — who wins, by roughly what
   factor, where the crossovers are — are the reproduction target, and
   EXPERIMENTS.md records them against the paper's claims.

   Each experiment is an ordered list of *work units*, typically one
   per table row. A unit declares the simulations it needs, as data,
   and renders its rows from their outcomes; it never runs one itself.
   [render] runs each distinct simulation once in-process, and
   [Parallel.sweep] once in a child process, however many units
   or experiments share it; both print the units in canonical order
   from the same outcomes, so their output is byte-identical. *)

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

(* ---------- probes ---------- *)

(* The receiver port of the fabric's last host (the receiver of the
   2-to-1 dumbbell). *)
let receiver_port ctx (topo : Topology.built) =
  let hosts = topo.Topology.hosts in
  let node, pix = topo.Topology.to_host_port hosts.(Array.length hosts - 1) in
  Net.port ctx.Context.net node pix

(* Bottleneck utilization towards the receiver, sampled every 100us
   from 10ms to 200ms; each sample also notes whether any flow was
   active, so utilization can be reported over demand (busy) periods —
   the paper's Fig. 1 measures "when DCTCP enters a steady state", i.e.
   while there is work to send. *)
let utilization_series ctx topo =
  let interval = Units.us 100 and from_t = Units.ms 10 in
  let port = receiver_port ctx topo in
  let probe =
    Series.utilization_probe ~rate:port.Net.rate ~interval (fun () ->
        port.Net.tx_bytes)
  in
  (* reset the byte baseline just before the first real sample *)
  ignore (Sim.schedule_at ctx.Context.sim (from_t - interval) (fun () ->
      ignore (probe ())));
  let util = Series.create () and active = Series.create () in
  let rec tick at () =
    if at <= Units.ms 200 then begin
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

(* The receiver port's occupancy in each priority band (high, low),
   sampled every 10us for the first 100ms. *)
let band_series ctx topo =
  let port = receiver_port ctx topo in
  let hp = Series.create () and lp = Series.create () in
  let rec sample () =
    let now = Sim.now ctx.Context.sim in
    Series.record hp ~at:now (float_of_int (Prio_queue.hp_bytes port.Net.q));
    Series.record lp ~at:now (float_of_int (Prio_queue.lp_bytes port.Net.q));
    if now < Units.ms 100 then
      ignore (Sim.schedule ctx.Context.sim ~after:(Units.us 10) sample)
  in
  ignore (Sim.schedule_at ctx.Context.sim 0 sample);
  (hp, lp)

(* ---------- simulations and work units ---------- *)

type probe = Plain | Util | Bands  (* the series a run also samples *)

type scheme =
  | Scheme of Schemes.t
  | Hypo of float  (* hypothetical DCTCP: fill the gap to this x MW *)

type sim = {
  key : string;              (* equal keys run the same simulation *)
  cfg : Config.t;
  scheme : scheme;
  lp_buffer_cap : int option;
  probe : probe;
  needs : sim option;        (* the run whose outcome this one reads *)
}

type outcome = {
  result : Runner.result;
  series : (Series.t * Series.t) option;   (* the probe's two series *)
}

let scheme_name = function
  | Scheme s -> s.Schemes.s_name
  | Hypo 1.0 -> "hypo-dctcp"
  | Hypo f -> Printf.sprintf "hypo-%.2fxMW" f

(* The one way to declare a simulation. Its key names everything the
   run depends on: the scheme, the marshalled configuration, the
   low-priority buffer cap and the probe. A hypothetical run needs the
   plain DCTCP run with the same configuration, cap and probe. *)
let rec sim ?lp_buffer_cap ?(probe = Plain) cfg scheme =
  let data =
    Marshal.to_string (cfg, lp_buffer_cap, probe) [ Marshal.No_sharing ]
  in
  { key = scheme_name scheme ^ "/" ^ Digest.to_hex (Digest.string data);
    cfg; scheme; lp_buffer_cap; probe;
    needs =
      (match scheme with
       | Hypo _ -> Some (sim ?lp_buffer_cap ~probe cfg (Scheme Schemes.dctcp))
       | Scheme _ -> None) }

(* Run [s]; [get] gives the outcome of [s.needs]. *)
let exec ({ cfg; lp_buffer_cap; _ } as s) ~get =
  let scheme =
    match s.scheme with
    | Scheme sc -> sc
    | Hypo fill_fraction ->
      let dctcp = get (Option.get s.needs) in
      Schemes.plain (scheme_name s.scheme)
        (Hypothetical.make ~fill_fraction
           ~wmax:dctcp.result.Runner.flow_wmax)
  in
  let series = ref None in
  let observe ctx topo =
    match s.probe with
    | Plain -> ()
    | Util -> series := Some (utilization_series ctx topo)
    | Bands -> series := Some (band_series ctx topo)
  in
  let result = Runner.run ?lp_buffer_cap ~observe cfg scheme in
  { result; series = !series }

type unit_of_work = {
  u_name : string;                       (* unique within the figure *)
  u_sims : sim list;                     (* what it needs run *)
  u_render : (sim -> outcome) -> Format.formatter -> unit;
  (* prints its rows, given the outcome of each of [u_sims] *)
}

let unit_ ?(sims = []) u_name u_render = { u_name; u_sims = sims; u_render }

(* A unit that runs nothing; [whole] makes a static table one. *)
let text u_name print = unit_ u_name (fun _ ppf -> print ppf)
let whole print = fun _ -> [ text "all" print ]

type experiment = {
  e_id : string;
  e_descr : string;
  e_units : opts -> unit_of_work list;
}

let exp_ e_id e_descr e_units = { e_id; e_descr; e_units }

(* ---------- shared plumbing ---------- *)

let overall (r : Runner.result) = r.Runner.summary.Fct.overall_avg

let fct_cols = [ "overall"; "small-avg"; "small-p99"; "large-avg" ]

let fct_row ppf (r : Runner.result) =
  let s = r.Runner.summary in
  Table.row ppf r.Runner.r_scheme
    [ s.Fct.overall_avg; s.Fct.small_avg; s.Fct.small_p99;
      s.Fct.large_avg ];
  if r.Runner.completed < r.Runner.requested then
    Format.fprintf ppf "  (!) %s: only %d/%d flows completed@\n"
      r.Runner.r_scheme r.Runner.completed r.Runner.requested

(* A unit printing [row] of one simulation's result, under [label]
   when given. *)
let row_unit ?(row = fct_row) ?label name s =
  unit_ name ~sims:[ s ] (fun get ppf ->
      let r = (get s).result in
      row ppf
        (match label with
         | Some r_scheme -> { r with Runner.r_scheme }
         | None -> r))

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
  text (prefix ^ "head") (fun ppf -> head ppf; Table.header ppf cols)

(* A table of schemes over one configuration: its head unit, then one
   unit per scheme printing the [row] of its run over [cfg]. *)
let table ?(prefix = "") ?cols ?row head cfg schemes =
  head_unit ~prefix ?cols head
  :: List.map
       (fun s ->
          row_unit ?row (prefix ^ s.Schemes.s_name) (sim cfg (Scheme s)))
       schemes

(* Smooth a utilization trace over [window] consecutive samples. *)
let smooth ~window vals =
  let arr = Array.of_list vals in
  let n = Array.length arr in
  List.init (max 0 (n - window + 1)) (fun i ->
      let sum = ref 0. in
      for j = i to i + window - 1 do sum := !sum +. arr.(j) done;
      !sum /. float_of_int window)

(* Mean utilization, overall and over busy periods, the smoothed
   busy-period minimum and the fraction of it below 50%; then the
   smoothed busy-period trace. *)
let util_stats (util, active) =
  let us = Series.values util and acts = Series.values active in
  let busy =
    List.filter_map
      (fun (u, a) -> if a > 0.5 then Some u else None)
      (List.combine us acts)
  in
  let share f xs =
    match xs with
    | [] -> nan
    | _ -> List.fold_left (fun acc x -> acc +. f x) 0. xs
           /. float_of_int (List.length xs)
  in
  let busy_smooth = smooth ~window:10 busy in
  ([ share Fun.id us; share Fun.id busy;
     List.fold_left min infinity busy_smooth;
     share (fun v -> if v < 0.5 then 1. else 0.) busy_smooth ],
   busy_smooth)

let util_row ppf name stats =
  Table.row ppf name (List.map (fun v -> 100. *. v) stats)

(* Fig. 1 / Fig. 20 setting: continuous 2-to-1 web-search traffic at
   0.5 load on a 40G bottleneck, utilization sampled every 100us and
   smoothed over 1ms. *)
let util_sim o scheme =
  sim ~probe:Util
    (Config.dumbbell ~n_flows:(scaled o 400) ~load:0.5 ~seed:o.seed ())
    scheme

let util_cols =
  [ "mean-%"; "busy-mean-%"; "busy-min-%"; "busy<50% fr" ]

(* ====================================================================
   Figures
   ==================================================================== *)

(* Fig. 1: DCTCP link utilization fluctuates far below the offered
   load at 0.5. *)
let fig1 = exp_ "fig1" "DCTCP utilization fluctuation" @@ fun o ->
  let s = util_sim o (Scheme Schemes.dctcp) in
  [ unit_ "all" ~sims:[ s ] (fun get ppf ->
        section ppf
          "fig1: DCTCP bottleneck utilization, 2-to-1 at 40G, web search, \
           0.5 load";
        let stats, trace = util_stats (Option.get (get s).series) in
        Table.header ppf util_cols;
        util_row ppf "dctcp" stats;
        Format.fprintf ppf
          "@\nbusy-period utilization trace (%%, 1ms-smoothed):@\n";
        List.iteri
          (fun i v ->
             if i < 60 then
               Format.fprintf ppf "%s%4.0f"
                 (if i > 0 && i mod 15 = 0 then "\n" else " ")
                 (100. *. v))
          trace;
        Format.fprintf ppf "@\n") ]

(* Fig. 2: the hypothetical DCTCP beats Homa and NDP on overall FCT. *)
let fig2 = exp_ "fig2" "hypothetical DCTCP vs proactive" @@ fun o ->
  let cfg = fabric o 800 in
  let row ppf (r : Runner.result) =
    Table.row ppf r.Runner.r_scheme [ overall r ]
  in
  table ~cols:[ "overall-avg-ms" ] ~row
    (title
       "fig2: overall avg FCT, hypothetical DCTCP vs proactive transports \
        (web search, 0.5)")
    cfg [ Schemes.dctcp; Schemes.homa; Schemes.ndp ]
  @ [ row_unit ~row "hypo-dctcp" (sim cfg (Hypo 1.0)) ]

(* Fig. 3: filling the gap to x * MW; 1.0 is the sweet spot. Kept as a
   single unit: every row is reported relative to the 1.0xMW run. *)
let fig3 = exp_ "fig3" "fill-to-fraction-of-MW sweep" @@ fun o ->
  let cfg =
    fabric ~load:0.6 o 250
    |> Config.with_workload ~name:"data-mining" Dists.data_mining
  in
  let sims =
    List.map (fun f -> sim cfg (Hypo f)) [ 0.5; 0.75; 1.0; 1.25; 1.5 ]
  in
  [ unit_ "all" ~sims (fun get ppf ->
        section ppf
          "fig3: filling the gap to a fraction of MW (data mining, 0.6)";
        let results = List.map (fun s -> (get s).result) sims in
        let base = overall (List.nth results 2) in
        Table.header ppf [ "overall-avg-ms"; "vs 1.0xMW" ];
        List.iter
          (fun (r : Runner.result) ->
             Table.row ppf r.Runner.r_scheme [ overall r; overall r /. base ])
          results) ]

(* Figs. 8/9: testbed 15-to-15 FCT statistics across loads. *)
let testbed_loads_units o ~title:t ~workload ~workload_name ~n_flows =
  text "head" (title t)
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

let fig8 = exp_ "fig8" "testbed 15-to-15 web search" @@ fun o ->
  testbed_loads_units o ~title:"fig8: testbed 15-to-15, web search"
    ~workload:Dists.web_search ~workload_name:"web-search" ~n_flows:250

let fig9 = exp_ "fig9" "testbed 15-to-15 data mining" @@ fun o ->
  testbed_loads_units o ~title:"fig9: testbed 15-to-15, data mining"
    ~workload:Dists.data_mining ~workload_name:"data-mining" ~n_flows:120

(* Figs. 10/11: testbed 14-to-1 incast at 0.5 load. *)
let testbed_incast o ~workload ~workload_name ~n_flows =
  { (Config.testbed ~n_flows:(scaled o n_flows) ~load:0.5 ~seed:o.seed ())
    with Config.pattern = Config.Incast { n_senders = 14 } }
  |> Config.with_workload ~name:workload_name workload

let fig10 = exp_ "fig10" "testbed 14-to-1 web search" @@ fun o ->
  table (title "fig10: testbed 14-to-1 incast, web search, 0.5 load")
    (testbed_incast o ~workload:Dists.web_search ~workload_name:"web-search"
       ~n_flows:250)
    Schemes.testbed_set

let fig11 = exp_ "fig11" "testbed 14-to-1 data mining" @@ fun o ->
  table (title "fig11: testbed 14-to-1 incast, data mining, 0.5 load")
    (testbed_incast o ~workload:Dists.data_mining
       ~workload_name:"data-mining" ~n_flows:120)
    Schemes.testbed_set

(* Figs. 12/13: the large-scale six-scheme comparison. *)
let fig12 = exp_ "fig12" "large-scale web search" @@ fun o ->
  table
    (title
       "fig12: large-scale simulation (oversubscribed 40/100G), web search, \
        0.5 load")
    (fabric o 800) Schemes.headline

let fig13 = exp_ "fig13" "large-scale data mining" @@ fun o ->
  table
    (title
       "fig13: large-scale simulation (oversubscribed 40/100G), data \
        mining, 0.5 load")
    (fabric o 300
     |> Config.with_workload ~name:"data-mining" Dists.data_mining)
    Schemes.headline

(* Fig. 14: PPT's design on a delay-based (Swift-like) transport. *)
let fig14 = exp_ "fig14" "PPT over delay-based transport" @@ fun o ->
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

let fig15 = exp_ "fig15" "ablation: ECN for LCP" @@ fun o ->
  ablation_units ~show_without_dt:true o
    ~title:"fig15: effect of ECN for the LCP loop" Schemes.ppt_no_lcp_ecn

let fig16 = exp_ "fig16" "ablation: EWD" @@ fun o ->
  ablation_units ~show_without_dt:true o
    ~title:"fig16: effect of exponential window decreasing"
    Schemes.ppt_no_ewd

let fig17 = exp_ "fig17" "ablation: flow scheduling" @@ fun o ->
  ablation_units o
    ~title:"fig17: effect of buffer-aware flow scheduling"
    Schemes.ppt_no_sched

let fig18 = exp_ "fig18" "ablation: flow identification" @@ fun o ->
  ablation_units o
    ~title:"fig18: effect of buffer-aware flow identification"
    Schemes.ppt_no_ident

(* Fig. 19: kernel datapath overhead proxy (operations per host per
   second) for PPT vs DCTCP across loads. *)
let fig19 = exp_ "fig19" "datapath overhead proxy" @@ fun o ->
  head_unit ~cols:[ "dctcp-kops/s"; "ppt-kops/s"; "ppt/dctcp" ]
    (title
       "fig19: datapath operation rate (CPU overhead proxy), testbed, web \
        search")
  :: List.map
       (fun load ->
          let cfg =
            Config.testbed ~n_flows:(scaled o 250) ~load ~seed:o.seed ()
          in
          let d = sim cfg (Scheme Schemes.dctcp)
          and p = sim cfg (Scheme Schemes.ppt) in
          unit_ (Printf.sprintf "load%.1f" load) ~sims:[ d; p ]
            (fun get ppf ->
               let ops s = (get s).result.Runner.ops_per_host_sec in
               Table.row ppf (Printf.sprintf "load %.1f" load)
                 [ ops d /. 1e3; ops p /. 1e3; ops p /. ops d ]))
       [ 0.3; 0.5; 0.7; 0.9 ]

(* Fig. 20: PPT sustains the utilization the hypothetical DCTCP
   achieves; plain DCTCP dips far below. *)
let fig20 = exp_ "fig20" "utilization: PPT vs hypothetical" @@ fun o ->
  let row name scheme =
    let s = util_sim o scheme in
    unit_ name ~sims:[ s ] (fun get ppf ->
        util_row ppf name (fst (util_stats (Option.get (get s).series))))
  in
  [ head_unit ~cols:util_cols
      (title
         "fig20: bottleneck utilization, 2-to-1 at 40G, web search, 0.5 \
          load");
    row "dctcp" (Scheme Schemes.dctcp);
    row "ppt" (Scheme Schemes.ppt);
    row "hypo-dctcp" (Hypo 1.0) ]

(* Fig. 21: the Facebook Memcached workload (all flows <= 100KB). *)
let fig21 = exp_ "fig21" "memcached workload" @@ fun o ->
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
let fig22 = exp_ "fig22" "100/400G topology" @@ fun o ->
  table (title "fig22: 100/400G topology, web search, 0.5 load")
    (fabric ~mk:Config.fast o 800) Schemes.headline

(* Fig. 23: N-to-1 incast sweep. *)
let fig23 = exp_ "fig23" "incast sweep" @@ fun o ->
  let cfg0 = fabric ~load:0.6 o 300 in
  let ns =
    List.filter (fun n -> n < Config.n_hosts cfg0)
      (if o.full then [ 32; 64; 128; 143 ] else [ 8; 16; 31 ])
  in
  let incast n =
    { cfg0 with Config.pattern = Config.Incast { n_senders = n } }
  in
  head_unit ~cols:(List.map (Printf.sprintf "N=%d") ns)
    (title "fig23: incast, web search, 0.6 load (overall avg FCT)")
  :: List.map
       (fun scheme ->
          let sims = List.map (fun n -> sim (incast n) (Scheme scheme)) ns in
          unit_ scheme.Schemes.s_name ~sims (fun get ppf ->
              Table.row ppf scheme.Schemes.s_name
                (List.map (fun s -> overall (get s).result) sims)))
       [ Schemes.ppt; Schemes.ndp; Schemes.homa; Schemes.aeolus;
         Schemes.dctcp ]

(* Fig. 24: RC3 with its low-priority buffer capped. *)
let fig24 = exp_ "fig24" "RC3 with capped low-prio buffer" @@ fun o ->
  let cfg = fabric o 800 in
  head_unit
    (title
       "fig24: RC3 with capped low-priority buffer vs PPT (web search, \
        0.5)")
  :: List.map
       (fun frac ->
          let pct = int_of_float (frac *. 100.) in
          let cap =
            int_of_float (frac *. float_of_int cfg.Config.buffer_bytes)
          in
          row_unit (Printf.sprintf "rc3-lp%d" pct)
            ~label:(Printf.sprintf "rc3-lp%d%%" pct)
            (sim ~lp_buffer_cap:cap cfg (Scheme Schemes.rc3)))
       [ 0.2; 0.4; 0.6; 0.8 ]
  @ [ row_unit "ppt" (sim cfg (Scheme Schemes.ppt)) ]

(* Fig. 25: PIAS and HPCC. *)
let fig25 = exp_ "fig25" "PPT vs PIAS and HPCC" @@ fun o ->
  table (title "fig25: PPT vs PIAS and HPCC (web search, 0.5)")
    (fabric o 800) [ Schemes.hpcc; Schemes.pias; Schemes.ppt ]

(* Fig. 26: the non-oversubscribed fabric. *)
let fig26 = exp_ "fig26" "non-oversubscribed topology" @@ fun o ->
  table (title "fig26: non-oversubscribed topology, web search, 0.5 load")
    (fabric ~mk:Config.non_oversub o 800) Schemes.headline

(* Fig. 27: TCP send-buffer sensitivity. The largest buffer, 2 GB, is
   PPT's default (§6.2): that row is the plain PPT run. *)
let fig27 = exp_ "fig27" "send-buffer sensitivity" @@ fun o ->
  let cfg = fabric o 800 in
  table
    (title "fig27: PPT under different send-buffer sizes (web search, 0.5)")
    cfg
    (List.map Schemes.ppt_sendbuf [ Units.kb 128; Units.mb 2; Units.mb 4 ])
  @ [ row_unit ~label:"ppt-sb-2G" "ppt-sb-2G" (sim cfg (Scheme Schemes.ppt)) ]

(* Figs. 28/29 setting: 2-to-1 at 40G with a 120KB buffer and the same
   ECN threshold on both bands, at 60% / 80% of the buffer. Both
   figures read the same band-probed runs. *)
let buffer_sweep_units o ~render_one =
  List.concat_map
    (fun thresh_frac ->
       let prefix = Printf.sprintf "t%.0f/" (100. *. thresh_frac) in
       let buffer = Units.kb 120 in
       let k = int_of_float (thresh_frac *. float_of_int buffer) in
       let cfg =
         Config.dumbbell ~n_flows:(scaled o 300) ~load:0.8 ~seed:o.seed
           ~delay:(Units.us 2) ~buffer_bytes:buffer ~hp_thresh:k
           ~lp_thresh:k ()
       in
       text (prefix ^ "head") (fun ppf ->
           Format.fprintf ppf "-- ECN threshold at %.0f%% of buffer --@\n"
             (100. *. thresh_frac))
       :: List.map
            (fun scheme ->
               let s = sim ~probe:Bands cfg (Scheme scheme) in
               unit_ (prefix ^ scheme.Schemes.s_name) ~sims:[ s ]
                 (fun get ppf ->
                    render_one ppf scheme.Schemes.s_name (get s)))
            [ Schemes.dctcp; Schemes.rc3; Schemes.ppt ])
    [ 0.6; 0.8 ]

let fig28 = exp_ "fig28" "buffer occupancy by band" @@ fun o ->
  head_unit ~cols:[ "hp-mean-KB"; "lp-mean-KB"; "lp-share-%" ]
    (title
       "fig28: buffer occupancy split by priority band, ECN = 60%/80% of \
        a 120KB buffer")
  :: buffer_sweep_units o ~render_one:(fun ppf name out ->
      let hp, lp = Option.get out.series in
      let hp_m = Series.mean hp and lp_m = Series.mean lp in
      let share =
        if hp_m +. lp_m = 0. then 0.
        else 100. *. lp_m /. (hp_m +. lp_m)
      in
      Table.row ppf name [ hp_m /. 1e3; lp_m /. 1e3; share ])

let fig29 = exp_ "fig29" "transfer efficiency" @@ fun o ->
  head_unit ~cols:[ "overall-eff"; "low-prio-eff" ]
    (title
       "fig29: transfer efficiency (received bytes / sent bytes), same \
        setting as fig28")
  :: buffer_sweep_units o ~render_one:(fun ppf name out ->
      Table.row ppf name
        [ out.result.Runner.efficiency; out.result.Runner.lp_efficiency ])

(* ====================================================================
   Tables
   ==================================================================== *)

(* A static table: text cells under a [label_width]-wide label. *)
let text_table ~label_width ppf cols rows =
  Table.header ~label_width ppf cols;
  List.iter
    (fun (label, cells) -> Table.text_row ~label_width ppf label cells)
    rows

let tab1 =
  exp_ "tab1" "qualitative transport comparison" @@ whole @@ fun ppf ->
  section ppf "tab1: qualitative comparison of transports (paper Table 1)";
  text_table ~label_width:14 ppf
    [ "spare-bw"; "sched-wo-size"; "commodity"; "tcp-compat"; "no-app-mod" ]
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

let tab2 = exp_ "tab2" "workload flow-size statistics" @@ whole @@ fun ppf ->
  section ppf "tab2: flow-size statistics of the workloads (paper Table 2)";
  Table.header ppf [ "small-%"; "large-%"; "avg-size-MB" ];
  List.iter
    (fun { Dists.dist_name; cdf } ->
       let small = Cdf.fraction_below cdf Fct.cutoff in
       Table.row ppf dist_name
         [ 100. *. small; 100. *. (1. -. small); Cdf.mean cdf /. 1e6 ])
    Dists.all

let tab3 = exp_ "tab3" "testbed parameters" @@ whole @@ fun ppf ->
  section ppf "tab3: testbed parameters (paper Table 3)";
  let cfg = Config.testbed () in
  let kv k v = Format.fprintf ppf "  %-34s %s@\n" k v in
  let kb = function
    | Some k -> Printf.sprintf "%d KB" (k / 1000)
    | None -> "off"
  in
  kv "topology" "15 hosts, one switch (Dell S4048 model)";
  kv "per-port switch buffer"
    (Printf.sprintf "%d KB (~50MB / 54 ports)"
       (cfg.Config.buffer_bytes / 1000));
  kv "link speed" "10 Gbps";
  kv "base RTT" "~80 us";
  kv "RTO_min" (Printf.sprintf "%.0f ms" (Units.to_ms cfg.Config.rto_min));
  kv "RTTbytes for Homa" "50 KB (the context BDP)";
  kv "overcommitment degree for Homa" (string_of_int Homa.overcommit);
  kv "DCTCP / HCP ECN threshold" (kb cfg.Config.hp_thresh);
  kv "LCP ECN threshold" (kb cfg.Config.lp_thresh);
  kv "identification threshold" "100 KB"

let tab4 = exp_ "tab4" "Homa/Linux stack LoC" @@ whole @@ fun ppf ->
  section ppf
    "tab4: Homa/Linux stack size (paper Table 4; data from the paper, \
     motivates PPT's ~400-LoC deployability claim)";
  text_table ~label_width:26 ppf [ "LoC"; "share-%" ]
    [ ("user API", [ "1900"; "15.0" ]);
      ("transport control", [ "2800"; "22.0" ]);
      ("GRO/GSO", [ "400"; "3.1" ]);
      ("state management", [ "700"; "5.5" ]);
      ("memory management", [ "300"; "2.4" ]);
      ("timeout retransmission", [ "300"; "2.4" ]);
      ("other", [ "6300"; "49.6" ]) ]

let tab5 = exp_ "tab5" "app changes for Homa/Linux" @@ whole @@ fun ppf ->
  section ppf
    "tab5: application changes needed for Homa/Linux (paper Table 5; \
     data from the paper)";
  text_table ~label_width:30 ppf [ "LoC"; "modified" ]
    [ ("socket", [ "2080"; "yes" ]);
      ("HTTP header processing", [ "1516"; "no" ]);
      ("RPC", [ "975"; "yes" ]);
      ("RAFT consensus", [ "1365"; "no" ]);
      ("coroutine synchronization", [ "145"; "no" ]);
      ("IO", [ "393"; "yes" ]);
      ("other", [ "1694"; "no" ]) ]

(* ====================================================================
   Extensions beyond the paper's figures
   ==================================================================== *)

(* Every Table-1 transport on the headline fabric: the full landscape
   the paper's Table 1 describes qualitatively, measured. *)
let ext1 = exp_ "ext1" "all Table-1 transports measured" @@ fun o ->
  table
    (title
       "ext1: all Table-1 transports, web search, 0.5 load \
        (oversubscribed fabric)")
    (fabric o 600) Schemes.table1_set

(* §6.3 sensitivity: PPT works under a wide range of LCP ECN marking
   thresholds (the lambda parameter of Eq. 3). *)
let ext2 = exp_ "ext2" "LCP ECN-threshold sensitivity" @@ fun o ->
  head_unit
    (title "ext2: PPT sensitivity to the LCP ECN threshold (lambda sweep)")
  :: List.map
       (fun lp_kb ->
          let lp_thresh = Some (Units.kb lp_kb) in
          row_unit (Printf.sprintf "lpK%d" lp_kb)
            ~label:(Printf.sprintf "ppt-lpK=%dKB" lp_kb)
            (sim { (fabric o 500) with Config.lp_thresh }
               (Scheme Schemes.ppt)))
       [ 24; 48; 86; 110 ]

(* Appendix B: PPT's LCP as a building block for the INT-based HPCC. *)
let ext3 = exp_ "ext3" "PPT over HPCC (appendix B)" @@ fun o ->
  table (title "ext3: PPT's design on HPCC (appendix B), web search, 0.5")
    (fabric o 500) [ Schemes.hpcc; Schemes.ppt_hpcc ]

(* Load balancing is orthogonal to the transport (appendix C): compare
   classic per-flow ECMP against LetFlow-style flowlet switching and
   NDP-style per-packet spraying on the oversubscribed fabric. *)
let ext4 = exp_ "ext4" "load balancing modes" @@ fun o ->
  head_unit
    (title
       "ext4: load balancing (ECMP / flowlet / packet spray), web search, \
        0.5 load")
  :: List.concat_map
       (fun (key, label, routing) ->
          let cfg = { (fabric o 500) with Config.routing } in
          text (key ^ "/head") (fun ppf ->
              Format.fprintf ppf "-- %s --@\n" label)
          :: List.map
               (fun s -> row_unit (key ^ "/" ^ s.Schemes.s_name)
                   (sim cfg (Scheme s)))
               [ Schemes.ppt; Schemes.dctcp ])
       [ ("ecmp", "per-flow ECMP", Topology.Per_flow);
         ("flowlet", "flowlet (gap = 50us)",
          Topology.Flowlet { gap = Units.us 50 });
         ("spray", "per-packet spray", Topology.Per_packet) ]

(* Normalized FCT (slowdown) and Jain fairness: the Homa-style view of
   the same headline comparison. *)
let ext5 = exp_ "ext5" "slowdown and fairness view" @@ fun o ->
  let slowdown_row ppf (r : Runner.result) =
    let fct = Fct.create () in
    List.iter (Fct.add fct) r.Runner.records;
    let rate = r.Runner.edge_rate and base_rtt = r.Runner.base_rtt in
    let mean, p99 = Fct.slowdown_stats ~rate ~base_rtt fct in
    let _, small_p99 =
      Fct.slowdown_stats ~hi:Fct.cutoff ~rate ~base_rtt fct
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
let chaos =
  exp_ "chaos" "fault injection: canonical chaos scenarios" @@ fun o ->
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
  text "head" (fun ppf ->
      section ppf
        "chaos: canonical fault scenarios (oversubscribed fabric), web \
         search, 0.5 load";
      Format.fprintf ppf "%-12s %-8s %11s %12s %10s %10s@\n" "scenario"
        "scheme" "completed" "fault-drops" "avg-fct" "small-p99")
  :: List.concat_map
       (fun (name, spec_s) ->
          let cfg =
            match Ppt_faults.Fault_spec.of_string spec_s with
            | Ok spec -> Config.with_faults spec base
            | Error e -> failwith ("chaos scenario " ^ name ^ ": " ^ e)
          in
          let row ppf (r : Runner.result) =
            Format.fprintf ppf "%-12s %-8s %5d/%-5d %12d %10.3f %10.3f@\n"
              name r.Runner.r_scheme r.Runner.completed r.Runner.requested
              r.Runner.fault_drops (overall r) r.Runner.summary.Fct.small_p99
          in
          List.map
            (fun scheme ->
               row_unit ~row (name ^ "/" ^ scheme.Schemes.s_name)
                 (sim cfg (Scheme scheme)))
            Schemes.chaos_set)
       scenarios

(* ---------- registry ---------- *)

let all : experiment list =
  [ tab1; tab2; tab3; tab4; tab5; fig1; fig2; fig3; fig8; fig9; fig10; fig11;
    fig12; fig13; fig14; fig15; fig16; fig17; fig18; fig19; fig20; fig21;
    fig22; fig23; fig24; fig25; fig26; fig27; fig28; fig29; ext1; ext2; ext3;
    ext4; ext5; chaos ]

let find id = List.find_opt (fun e -> e.e_id = id) all

(* Every distinct simulation [units] need, each after the one it
   reads, in order of first use. *)
let distinct units =
  let seen = Hashtbl.create 256 in
  let rec add acc s =
    if Hashtbl.mem seen s.key then acc
    else begin
      let acc = Option.fold ~none:acc ~some:(add acc) s.needs in
      Hashtbl.add seen s.key ();
      s :: acc
    end
  in
  List.rev
    (List.fold_left (fun acc u -> List.fold_left add acc u.u_sims) [] units)

(* Serial rendering, the reference a parallel sweep must reproduce byte
   for byte: each distinct simulation runs once, in-process, then every
   unit prints straight into [ppf] in canonical order. *)
let render e o ppf =
  let units = e.e_units o in
  let outcomes = Hashtbl.create 16 in
  let get s = Hashtbl.find outcomes s.key in
  List.iter
    (fun s -> Hashtbl.replace outcomes s.key (exec s ~get))
    (distinct units);
  List.iter (fun u -> u.u_render get ppf) units
