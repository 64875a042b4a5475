(* Tests for the baseline transports the paper compares against:
   RC3, PIAS, Swift, HPCC, Homa, Aeolus, NDP and the hypothetical
   fill-to-MW DCTCP. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport

module Schemes = Ppt_harness.Schemes

let check = Alcotest.check

(* Eight flows into one sink of a 5-host star, on a fabric with the
   inband telemetry the scheme needs; all must complete. *)
let test_completion (scheme : Schemes.t) () =
  let n_hosts = 5 in
  let _sim, _topo, ctx =
    Helpers.star ~n:n_hosts ~collect_int:scheme.s_collect_int ()
  in
  let specs =
    List.init 8 (fun i ->
        (i mod (n_hosts - 1), n_hosts - 1,
         5_000 + ((i * 37_813) mod 600_000), i * 30_000))
  in
  Helpers.run_flows ctx (scheme.s_factory ctx) specs;
  check Alcotest.int (scheme.s_name ^ ": all flows complete") 8
    (Ppt_stats.Fct.count ctx.Context.fct)

(* --- RC3 ------------------------------------------------------------ *)

let test_rc3_low_loop_priorities () =
  check Alcotest.int "first tail packet at P4" 4 (Rc3.lp_prio 0);
  check Alcotest.int "packet 39 still P4" 4 (Rc3.lp_prio 39);
  check Alcotest.int "packet 40 demotes to P5" 5 (Rc3.lp_prio 40);
  check Alcotest.int "packet 1639 still P5" 5 (Rc3.lp_prio 1639);
  check Alcotest.int "packet 1640 at P6" 6 (Rc3.lp_prio 1640);
  check Alcotest.int "deep tail at P7" 7 (Rc3.lp_prio 10_000_000)

let test_rc3_sends_low_priority_bytes () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx (Rc3.make () ctx) [ (0, 1, 400_000, 0) ];
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.bool "rc3 low loop carried bytes" true
    (r.Ppt_stats.Fct.lcp_payload > 0)

(* RC3's defining flaw (§3 Remarks): its low loop keeps pushing without
   protecting the primary loop, so under contention it occupies far
   more low-priority buffer than PPT. *)
let test_rc3_aggressive_vs_ppt () =
  let lp_bytes factory =
    let _sim, topo, ctx = Helpers.star ~n:5 () in
    Helpers.launch ctx (factory ctx)
      (List.init 4 (fun i -> (i, 4, 2_000_000, 0)));
    (* sample the peak low-priority occupancy of the bottleneck port *)
    let node, pix = topo.Topology.to_host_port 4 in
    let port = Net.port ctx.Context.net node pix in
    let peak = ref 0 in
    let rec sample () =
      peak := max !peak (Prio_queue.lp_bytes port.Net.q);
      if Sim.now ctx.Context.sim < Units.ms 4 then
        ignore (Sim.schedule ctx.Context.sim ~after:(Units.us 10) sample)
    in
    ignore (Sim.schedule_at ctx.Context.sim 0 sample);
    Sim.run ~until:(Units.sec 10) ctx.Context.sim;
    !peak
  in
  let rc3 = lp_bytes (Rc3.make ()) in
  let ppt = lp_bytes (Ppt_core.Ppt.make ()) in
  check Alcotest.bool
    (Printf.sprintf "rc3 low-prio peak %dB > ppt %dB" rc3 ppt)
    true (rc3 > ppt)

(* --- PIAS ------------------------------------------------------------ *)

let test_pias_demotion () =
  check Alcotest.int "starts at P0" 0 (Pias.prio_of ~bytes_sent:0);
  check Alcotest.int "demotes" 3 (Pias.prio_of ~bytes_sent:150_000);
  check Alcotest.int "bottoms out at P7" 7
    (Pias.prio_of ~bytes_sent:999_999_999);
  (* the tagger runs for every data packet PIAS sends *)
  let before = Gc.minor_words () in
  for b = 0 to 9_999 do
    ignore (Sys.opaque_identity (Pias.prio_of ~bytes_sent:(b * 1_500)))
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words over 10k taggings" words)
    true (words < 100.)

(* --- Swift ----------------------------------------------------------- *)

let test_swift_keeps_delay_low () =
  (* a single saturating flow: DCTCP queues up to the marking threshold,
     Swift should keep the bottleneck queue near its target instead *)
  let run factory =
    let _sim, topo, ctx = Helpers.star () in
    Helpers.launch ctx (factory ctx) [ (0, 1, 4_000_000, 0) ];
    let node, pix = topo.Topology.to_host_port 1 in
    let port = Net.port ctx.Context.net node pix in
    let peak = ref 0 in
    let rec sample () =
      peak := max !peak (Prio_queue.bytes port.Net.q);
      if Sim.now ctx.Context.sim < Units.ms 3 then
        ignore (Sim.schedule ctx.Context.sim ~after:(Units.us 5) sample)
    in
    ignore (Sim.schedule_at ctx.Context.sim 0 sample);
    Sim.run ~until:(Units.sec 10) ctx.Context.sim;
    !peak
  in
  let swift_peak = run (Swift.make ()) in
  check Alcotest.bool
    (Printf.sprintf "swift peak queue %dB bounded" swift_peak)
    true (swift_peak < Units.kb 100)

(* --- HPCC ------------------------------------------------------------ *)

let test_hpcc_controls_queue () =
  let _sim, topo, ctx = Helpers.star ~collect_int:true () in
  Helpers.launch ctx (Hpcc.make () ctx)
    (List.init 3 (fun src -> (src, 3, 2_000_000, 0)));
  let node, pix = topo.Topology.to_host_port 3 in
  let port = Net.port ctx.Context.net node pix in
  let peak = ref 0 in
  let rec sample () =
    peak := max !peak (Prio_queue.bytes port.Net.q);
    if Sim.now ctx.Context.sim < Units.ms 4 then
      ignore (Sim.schedule ctx.Context.sim ~after:(Units.us 5) sample)
  in
  ignore (Sim.schedule_at ctx.Context.sim 0 sample);
  Sim.run ~until:(Units.sec 10) ctx.Context.sim;
  check Alcotest.int "all complete" 3 (Ppt_stats.Fct.count ctx.Context.fct);
  check Alcotest.bool
    (Printf.sprintf "hpcc peak queue %dB stays under buffer" !peak)
    true (!peak < Units.kb 150)

(* --- Homa / Aeolus ---------------------------------------------------- *)

let test_homa_small_flow_one_rtt () =
  (* a flow within RTTbytes completes in about one RTT: all unscheduled *)
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let t = Homa.make () ctx in
  Helpers.run_flows ctx t [ (0, 1, 20_000, 0) ];
  let fct = Option.get (Helpers.fct_of ctx 0) in
  check Alcotest.bool
    (Printf.sprintf "fct=%dns within ~2 RTT" fct)
    true (fct < 2 * ctx.Context.base_rtt)

let test_homa_grants_large_flows () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let t = Homa.make () ctx in
  Helpers.run_flows ctx t [ (0, 1, 800_000, 0) ];
  check Alcotest.bool "large flow completes via grants" true
    (Helpers.fct_of ctx 0 <> None)

let test_homa_srpt_preference () =
  (* under contention for one receiver, the short message should finish
     far sooner than the long one (SRPT grants + priorities) *)
  let _sim, _topo, ctx = Helpers.star ~n:5 ~delay:(Units.us 20) () in
  let t = Homa.make () ctx in
  Helpers.run_flows ctx t
    [ (0, 4, 4_000_000, 0); (1, 4, 4_000_000, 0); (2, 4, 60_000, 50_000) ];
  let short = Option.get (Helpers.fct_of ctx 2) in
  let long0 = Option.get (Helpers.fct_of ctx 0) in
  check Alcotest.bool
    (Printf.sprintf "short=%dns much faster than long=%dns" short long0)
    true (short * 5 < long0)

let test_aeolus_unscheduled_dropped_early () =
  (* with a selective-drop threshold, a heavy burst of first-RTT aeolus
     packets dies at the switch instead of filling the buffer *)
  let qcfg =
    { (Helpers.default_qcfg ()) with
      Prio_queue.sel_drop_threshold = Some (Units.kb 30) }
  in
  let _sim, _topo, ctx = Helpers.star ~n:9 ~qcfg () in
  let t = Homa.make_aeolus () ctx in
  let specs = List.init 8 (fun i -> (i, 8, 300_000, 0)) in
  Helpers.run_flows ctx t specs;
  check Alcotest.int "all complete despite selective drops" 8
    (Ppt_stats.Fct.count ctx.Context.fct);
  check Alcotest.bool "selective drops happened" true
    (Net.total_drops ctx.Context.net > 0)

(* --- NDP -------------------------------------------------------------- *)

let ndp_qcfg () = { (Helpers.default_qcfg ~buffer:(Units.kb 40) ()) with
                    Prio_queue.trim = true }

let test_ndp_completes_with_trimming () =
  let _sim, _topo, ctx = Helpers.star ~n:7 ~qcfg:(ndp_qcfg ()) () in
  let t = Ndp.make () ctx in
  let specs = List.init 6 (fun i -> (i, 6, 400_000, 0)) in
  Helpers.run_flows ctx t specs;
  check Alcotest.int "all complete" 6 (Ppt_stats.Fct.count ctx.Context.fct);
  (* trimming must have replaced at least some drops *)
  let trims =
    let node = Net.node ctx.Context.net 7 in
    Array.fold_left
      (fun acc p -> acc + Prio_queue.trims p.Net.q) 0 node.Net.ports
  in
  check Alcotest.bool "payloads were trimmed" true (trims > 0)

let test_ndp_single_flow () =
  let _sim, _topo, ctx = Helpers.star ~qcfg:(ndp_qcfg ()) () in
  Helpers.run_flows ctx (Ndp.make () ctx) [ (0, 1, 250_000, 0) ];
  check Alcotest.bool "flow completes" true (Helpers.fct_of ctx 0 <> None)

(* --- hypothetical DCTCP ----------------------------------------------- *)

let test_hypothetical_two_pass () =
  let specs = [ (0, 1, 500_000, 0); (2, 1, 500_000, 10_000) ] in
  (* pass 1: plain DCTCP notes each flow's MW in its context *)
  let _sim, _topo, ctx1 = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx1 (Dctcp.make () ctx1) specs;
  let wmax = ctx1.Context.flow_wmax in
  check Alcotest.(list int) "mw noted once per flow" [ 0; 1 ]
    (List.sort compare (List.map fst wmax));
  (* pass 2: fill to MW; must be no slower overall than plain DCTCP *)
  let _sim, _topo, ctx2 = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx2
    (Hypothetical.make ~fill_fraction:1.0 ~wmax ctx2) specs;
  check Alcotest.(list int) "the fill notes no MW" []
    (List.map fst ctx2.Context.flow_wmax);
  let d = Ppt_stats.Fct.summarize ctx1.Context.fct in
  let h = Ppt_stats.Fct.summarize ctx2.Context.fct in
  check Alcotest.bool
    (Printf.sprintf "hypo=%.3fms <= dctcp=%.3fms x1.05"
       h.Ppt_stats.Fct.overall_avg d.Ppt_stats.Fct.overall_avg)
    true
    (h.Ppt_stats.Fct.overall_avg
     <= 1.05 *. d.Ppt_stats.Fct.overall_avg)

(* The fill paces its gap over one round trip with the LCP's gap
   function, rounded to nearest. A flow whose MW is three segments
   above its initial window drips three tail segments at start; the
   star's RTT, 4 x (20us + 1.2us), is 84,800 ns, so the exact gap is
   28,266.67 ns, which truncation cut to 28,266. *)
let test_hypothetical_fill_pacing () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let mss = Packet.max_payload in
  let initial = (Reliable.default_params ()).Reliable.initial_cwnd in
  let size = 200 * mss in
  let sends = ref [] in
  Ppt_obs.Trace.with_sink
    (fun ts ev ->
       match ev with
       | Ppt_obs.Event.Enqueue { node = 0; flow = 0; seq; kind = 'D'; _ }
         when seq >= 197 -> sends := (seq, ts) :: !sends
       | _ -> ())
    (fun () ->
       Helpers.run_flows ctx
         (Hypothetical.make ~fill_fraction:1.0
            ~wmax:[ (0, float_of_int (initial + (3 * mss))) ]
            ctx)
         [ (0, 1, size, 0) ]);
  let gap =
    Reliable.pace_interval ~rtt:ctx.Context.base_rtt ~sent:mss
      ~window:(3 * mss)
  in
  check Alcotest.int "rounded gap" 28_267 gap;
  check Alcotest.(list (pair int int)) "tail segments spaced by the gap"
    [ (199, 0); (198, gap); (197, 2 * gap) ]
    (List.rev !sends)

(* --- TCP / TCP-10 / Halfback / ExpressPass ----------------------------- *)

let test_tcp10_faster_startup () =
  (* with no losses, IW10 beats IW3 on a startup-bound flow *)
  let fct factory =
    let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
    Helpers.run_flows ctx (factory ctx) [ (0, 1, 120_000, 0) ];
    Option.get (Helpers.fct_of ctx 0)
  in
  let t3 = fct (Tcp.make ()) and t10 = fct (Tcp.make_tcp10 ()) in
  check Alcotest.bool
    (Printf.sprintf "tcp10=%dns < tcp=%dns" t10 t3) true (t10 < t3)

let test_halfback_small_flow_one_rtt () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx (Halfback.make () ctx) [ (0, 1, 100_000, 0) ];
  let fct = Option.get (Helpers.fct_of ctx 0) in
  (* 100KB ~ BDP: the pace-out burst completes in about one RTT *)
  check Alcotest.bool
    (Printf.sprintf "fct=%dns within ~2.5 RTT" fct)
    true (fct < 5 * ctx.Context.base_rtt / 2)

let test_halfback_large_flow_falls_back () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx (Halfback.make () ctx) [ (0, 1, 2_000_000, 0) ];
  check Alcotest.bool "large flow still completes" true
    (Helpers.fct_of ctx 0 <> None)

let test_expresspass_first_rtt_idle () =
  (* credit-gated: even a tiny flow needs a request round trip, so its
     FCT must exceed one base RTT *)
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx (Expresspass.make () ctx) [ (0, 1, 3_000, 0) ];
  let fct = Option.get (Helpers.fct_of ctx 0) in
  check Alcotest.bool
    (Printf.sprintf "fct=%dns > 1 base RTT" fct)
    true (fct > ctx.Context.base_rtt)

let test_expresspass_completes_many () =
  let _sim, _topo, ctx = Helpers.star ~n:6 () in
  let specs =
    List.init 20 (fun i -> (i mod 5, 5, 4_000 + (i * 9_001), i * 15_000))
  in
  Helpers.run_flows ctx (Expresspass.make () ctx) specs;
  check Alcotest.int "all complete" 20
    (Ppt_stats.Fct.count ctx.Context.fct)

(* --- PPT over HPCC (appendix B) ----------------------------------------- *)

let test_ppt_hpcc_completes_and_fills () =
  let _sim, _topo, ctx =
    Helpers.star ~delay:(Units.us 20) ~collect_int:true ()
  in
  Helpers.run_flows ctx
    (Ppt_core.Ppt.make ~hcp:Ppt_core.Ppt.Hpcc () ctx)
    [ (0, 1, 600_000, 0) ];
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.bool "flow completes" true
    (Helpers.fct_of ctx 0 <> None);
  check Alcotest.bool "lcp carried bytes over hpcc" true
    (r.Ppt_stats.Fct.lcp_payload > 0)

(* --- PPT over Swift ---------------------------------------------------- *)

let test_ppt_swift_uses_lcp () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx
    (Ppt_core.Ppt.make ~hcp:Ppt_core.Ppt.Swift () ctx)
    [ (0, 1, 600_000, 0) ];
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.bool "lcp carried bytes over swift" true
    (r.Ppt_stats.Fct.lcp_payload > 0)

(* --- receiver-driven outputs, pinned ------------------------------------ *)

(* NDP, Homa, Aeolus and ExpressPass each run the same 32 explicit
   flows (no generated trace, so the run is integer-only): pairs start
   together every 300 us, so the bursts collide, while the receiver's
   edge link is down from 2 ms to 5 ms. NDP trims and NACKs, Homa and
   Aeolus time out, and ExpressPass re-requests credit for the flows
   that start inside the outage. The binary event trace and the FCT
   records must hash to the recorded digests: any change to packet
   order, timer ties or per-flow counters shows up here.

   ExpressPass completes 30 of the 32: flows 12 and 13 are in flight
   when the link goes down, lose a full window of credits, and their
   senders' RTO resends a segment the receiver already holds until the
   120 s horizon (a known defect, listed on ROADMAP). The pin records
   that behaviour as it is; a fix must update it. *)
let pin_specs =
  List.init 32 (fun i ->
      { Ppt_workload.Trace.id = i; src = i mod 2; dst = 2;
        size = 2_000 + ((i * 48_611) mod 900_000);
        start = i / 2 * 300_000 })

let records_digest (records : Ppt_stats.Fct.record list) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (r : Ppt_stats.Fct.record) ->
       Printf.bprintf b "%d,%d,%d,%d,%d,%d,%d,%d,%d\n" r.flow r.size
         r.start r.finish r.retrans r.hcp_payload r.lcp_payload
         r.hcp_delivered r.lcp_delivered)
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Retransmit events per flow in a trace. *)
let retransmits_by_flow path =
  let counts = Hashtbl.create 64 in
  Ppt_obs.Reader.with_file path (fun r ->
      Ppt_obs.Reader.fold r
        (fun () _ ev ->
           match ev with
           | Ppt_obs.Event.Retransmit { flow; _ } ->
             Hashtbl.replace counts flow
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts flow))
           | _ -> ())
        ());
  counts

(* Run each scheme over [pin_specs] under the link flap and compare the
   completed count, the binary trace digest and the FCT digest. Every
   scheme's receiver credits the fresh payload it accepts, so each
   run's transfer efficiency (delivered / sent payload) lies in
   (0, 1], and each completed flow's receiver credited exactly its size
   across both loops. Every scheme sends its data through one path,
   which traces each retransmission: a completed flow's trace holds as
   many [Retransmit] events as its record counts. *)
let check_pinned cases =
  let open Ppt_harness in
  let flap =
    match Ppt_faults.Fault_spec.of_string "down@2ms-5ms:link:2" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (scheme, completed, trace_md5, fct_md5) ->
       let path = Filename.temp_file "ppt_pin" ".bin" in
       Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
           let cfg =
             Config.dumbbell ()
             |> Config.with_faults flap
             |> Config.with_trace ~path ~fmt:Config.Bin
           in
           let r = Runner.run ~trace:pin_specs cfg scheme in
           let name = r.Runner.r_scheme in
           check Alcotest.int (name ^ ": flows completed") completed
             r.Runner.completed;
           check Alcotest.string (name ^ ": trace digest") trace_md5
             (Digest.to_hex (Digest.file path));
           check Alcotest.string (name ^ ": fct digest") fct_md5
             (records_digest r.Runner.records);
           check Alcotest.bool (name ^ ": efficiency in (0, 1]") true
             (r.Runner.efficiency > 0. && r.Runner.efficiency <= 1.);
           let traced = retransmits_by_flow path in
           List.iter
             (fun (rec_ : Ppt_stats.Fct.record) ->
                check Alcotest.int
                  (Printf.sprintf "%s: flow %d retransmits traced" name
                     rec_.flow)
                  rec_.retrans
                  (Option.value ~default:0
                     (Hashtbl.find_opt traced rec_.flow));
                check Alcotest.int
                  (Printf.sprintf "%s: flow %d delivers its size" name
                     rec_.flow)
                  rec_.size
                  (rec_.hcp_delivered + rec_.lcp_delivered))
             r.Runner.records))
    cases

let receiver_driven_pins =
  let open Ppt_harness in
  [ (Schemes.ndp, 32, "d5f1d4a6694fdf3de1fe177a8013b42a",
     "07a1d65c3630f073069c113c331b12cc");
    (Schemes.homa, 32, "8665a3b073cef21eedcdf1e340a02de3",
     "8da20f49f56a74d49687fd8e2d9f566f");
    (Schemes.aeolus, 32, "129507e2c3cb1d00f43a9ede5891efca",
     "f40153d37ab0380d6403da9f6aa3799a");
    (Schemes.expresspass, 30, "51e4e9a86caec023be4873f0bb0cc9cb",
     "d0d47ec091710255f18d1bf629e33a3f") ]

let test_receiver_driven_pinned () = check_pinned receiver_driven_pins

(* The window-based schemes on the same 32 flows and link flap: every
   registered window scheme, PPT with a 128 KB send buffer (its
   send-buffer horizon moves, so the low-priority loop restarts its
   tail scan), and the hypothetical DCTCP, whose maximum windows come
   from a plain DCTCP run over a generated 32-flow dumbbell trace. All
   complete; the PPT variants open low-priority loops, so the traces
   pin the LCP's tail picks, pacing and loop switches as well. *)
let window_pins =
  let open Ppt_harness in
  [ (Schemes.dctcp, 32, "c1c0e7fb1f9dea5967e17dd2da6ff84f",
     "673db263908dec21dc1f7e7fb54be741");
    (Schemes.tcp, 32, "d9772490f1cc33b87454a66c8529cd1e",
     "c294401f4125cf68318d5ccd7f2b5735");
    (Schemes.tcp10, 32, "3a845e7b4295f8c11f2660ba63a85cd6",
     "4270f964900be56a8a2ae78f73de17f7");
    (Schemes.halfback, 32, "032832ee10704d0dd9c2a9433b347c3d",
     "12fce1375471b1a711202aa7fc83d96d");
    (Schemes.pias, 32, "cb998d5d6bd1a79adcdc07472478a642",
     "ee0b9b36b9a5636a8ee945327cd76d10");
    (Schemes.swift, 32, "61dfadb60d4d74509b48d24c5eab9c2b",
     "56c90220db978d77efb80d2393139050");
    (Schemes.hpcc, 32, "6787f447d7e9519c5758bb11a4b41826",
     "3fe76aabcf18aa01f3af931e3b843c38");
    (Schemes.rc3, 32, "cb6ba7a8d915f84191a08d1cda9ef4b1",
     "a6093addcda7a98234f64b8c525fa341");
    (Schemes.ppt, 32, "b11adf33190f962f5a5b9fa589b59a01",
     "969e218d79e362195060446d6e3dc8fa");
    (Schemes.ppt_swift, 32, "0d1fcb76de194294489fe318104ddc1b",
     "20df635555e63057a9fa7919e1cdde6e");
    (Schemes.ppt_hpcc, 32, "f2282dd8b7715ac1ddf4884a7748d469",
     "f4a3569677cbc1f5fa1c0eebf3127b0d");
    (Schemes.ppt_no_lcp_ecn, 32, "a686d88a7c5ee83bc7800fa831a06852",
     "2b9c55030783a49efedd35f8af356aca");
    (Schemes.ppt_no_ewd, 32, "1b9786d4bf01748672052fe3e41659ed",
     "7b81d71c640d56ffe627c717ac448560");
    (Schemes.ppt_no_sched, 32, "76c786acd187a38cb172f34edea08af4",
     "c839dc1ad5f70638fb8b60f6e2d249e2");
    (Schemes.ppt_no_ident, 32, "243a24bceef2bb25d2bae8aeebb22deb",
     "3d99faabe6347615845c8fbb8a9d9f74");
    (Schemes.ppt_sendbuf (Units.kb 128), 32,
     "695c5a775e30f8a718c492db1d9409c1",
     "1da3aa36742662c5bb9f71998da53b40") ]

let test_window_pinned () =
  let open Ppt_harness in
  let dctcp = Runner.run (Config.dumbbell ~n_flows:32 ()) Schemes.dctcp in
  let hypo =
    Schemes.plain "hypo-dctcp"
      (Hypothetical.make ~fill_fraction:1.0 ~wmax:dctcp.Runner.flow_wmax)
  in
  check_pinned
    (window_pins
     @ [ (hypo, 32, "8be5ae2ca02bf39a208690f4febee75d",
          "e71eb3d681d15f1e0fcacdb990479487") ])

(* Every scheme a name selects has pinned digests above: registering a
   transport in [Schemes.all] without pinning it fails here. *)
let test_pins_cover_registry () =
  let pinned =
    List.map
      (fun (s, _, _, _) -> s.Schemes.s_name)
      (receiver_driven_pins @ window_pins)
  in
  List.iter
    (fun s ->
       let name = s.Schemes.s_name in
       check Alcotest.bool (name ^ " has pinned digests") true
         (List.mem name pinned))
    Schemes.all

let suite =
  [ Alcotest.test_case "rc3: completes" `Quick
      (test_completion Schemes.rc3);
    Alcotest.test_case "rc3: low-loop priorities" `Quick
      test_rc3_low_loop_priorities;
    Alcotest.test_case "rc3: low loop carries bytes" `Quick
      test_rc3_sends_low_priority_bytes;
    Alcotest.test_case "rc3: more aggressive than ppt" `Quick
      test_rc3_aggressive_vs_ppt;
    Alcotest.test_case "pias: completes" `Quick
      (test_completion Schemes.pias);
    Alcotest.test_case "pias: demotion ladder" `Quick test_pias_demotion;
    Alcotest.test_case "swift: completes" `Quick
      (test_completion Schemes.swift);
    Alcotest.test_case "swift: delay stays low" `Quick
      test_swift_keeps_delay_low;
    Alcotest.test_case "hpcc: completes with INT" `Quick
      (test_completion Schemes.hpcc);
    Alcotest.test_case "hpcc: queue control" `Quick test_hpcc_controls_queue;
    Alcotest.test_case "homa: completes" `Quick
      (test_completion Schemes.homa);
    Alcotest.test_case "homa: small flow in one RTT" `Quick
      test_homa_small_flow_one_rtt;
    Alcotest.test_case "homa: grants large flows" `Quick
      test_homa_grants_large_flows;
    Alcotest.test_case "homa: SRPT preference" `Quick
      test_homa_srpt_preference;
    Alcotest.test_case "aeolus: completes" `Quick
      (test_completion Schemes.aeolus);
    Alcotest.test_case "aeolus: selective dropping" `Quick
      test_aeolus_unscheduled_dropped_early;
    Alcotest.test_case "ndp: single flow" `Quick test_ndp_single_flow;
    Alcotest.test_case "ndp: completes with trimming" `Quick
      test_ndp_completes_with_trimming;
    Alcotest.test_case "hypothetical: two-pass fill to MW" `Quick
      test_hypothetical_two_pass;
    Alcotest.test_case "hypothetical: fill paced at the rounded gap" `Quick
      test_hypothetical_fill_pacing;
    Alcotest.test_case "tcp: iw10 faster startup" `Quick
      test_tcp10_faster_startup;
    Alcotest.test_case "halfback: small flow in one RTT" `Quick
      test_halfback_small_flow_one_rtt;
    Alcotest.test_case "halfback: large flow fallback" `Quick
      test_halfback_large_flow_falls_back;
    Alcotest.test_case "expresspass: first RTT idle" `Quick
      test_expresspass_first_rtt_idle;
    Alcotest.test_case "expresspass: many flows" `Quick
      test_expresspass_completes_many;
    Alcotest.test_case "ppt-hpcc: completes and fills" `Quick
      test_ppt_hpcc_completes_and_fills;
    Alcotest.test_case "ppt-swift: completes" `Quick
      (test_completion Schemes.ppt_swift);
    Alcotest.test_case "ppt-swift: lcp carries bytes" `Quick
      test_ppt_swift_uses_lcp;
    Alcotest.test_case "receiver-driven: outputs pinned" `Quick
      test_receiver_driven_pinned;
    Alcotest.test_case "window-based: outputs pinned" `Quick
      test_window_pinned;
    Alcotest.test_case "pins cover every registered scheme" `Quick
      test_pins_cover_registry ]
