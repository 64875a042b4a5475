(* The two kinds of run: end to end (tracing off, every instance of the
   workload timed whole) and per layer (one instance re-run with a
   recording sink, then replayed layer by layer). *)

open Ppt_harness
module Trace = Ppt_obs.Trace
module Summary = Ppt_obs.Summary
module W = Workloads

let ratio a b = if b = 0. then nan else a /. b
let per a b = if b = 0 then nan else a /. float_of_int b

let trace_path dir =
  Filename.concat dir (Printf.sprintf "trace-%d.bin" (Unix.getpid ()))

(* Run one instance in the workload's end-to-end configuration, with
   [slices] host-speed slices inside its simulate phase. A traced
   workload writes its binary trace to [dir], reads it back and
   summarizes it; the others summarize their FCT records. Returns the
   run, the summary seconds and any failures of the trace check. *)
let run_e2e ~dir ~slices (w : W.t) cfg =
  if w.W.traced then begin
    let path = trace_path dir in
    let sink, close = Instance.file_sink path in
    let received = ref 0 in
    let inst =
      Fun.protect ~finally:(fun () -> received := close ())
        (fun () -> Trace.with_sink sink (fun () -> Instance.run ~slices cfg))
    in
    let t0 = Unix.gettimeofday () in
    let s = Instance.summarize_file path in
    let summary_s = Unix.gettimeofday () -. t0 in
    Instance.sample_heap inst;
    Sys.remove path;
    let fails =
      if s.Summary.events = !received then []
      else
        [ Printf.sprintf "trace decoded %d of %d events" s.Summary.events
            !received ]
    in
    (inst, summary_s, fails)
  end else begin
    let inst = Instance.run ~slices cfg in
    (inst, Instance.fct_summary_s inst, [])
  end

let instance_line ~index ~seed inst fails =
  Printf.sprintf
    "instance %d seed %d: events %d hops %d fct-digest %s raw cpu_s %.3f \
     wall_s %.3f heap_mb %.1f check %s"
    index seed inst.Instance.result.Runner.events (Instance.hops inst)
    (Instance.digest inst) (Instance.cpu_s inst) (Instance.wall_s inst)
    (float_of_int (inst.Instance.peak_words * 8) /. 1e6)
    (if fails = [] then "ok" else String.concat "; " fails)

(* ---- end to end ---- *)

(* Host-speed slices per instance: 5-8% of its time. *)
let slices = 100

type sample = {
  cpu : float;        (* normalized, as every time below *)
  wall : float;
  ns_per_hop : float;
  setup : float list;
  summary : float;
  peak_mb : float;
  failed : int;
  fails : string list;
}

let end_to_end ?(log = ignore) ?flows ?instances ~dir (w : W.t) ~seed
    ~seconds =
  let flows = Option.value flows ~default:w.W.flows in
  let k =
    match instances with
    | Some k -> k
    | None -> W.instances w ~seconds
  in
  let seeds = List.init k (W.instance_seed ~seed) in
  let cfg_of s = w.W.config ~seed:s ~flows in
  (* set-up alone, twice before each instance, so the samples spread
     over the run. A fabric set-up takes tens of microseconds, and one
     that a minor collection interrupts takes several times longer; so
     each set-up starts with an empty minor heap, and each sample
     averages enough of them to last 5 ms *)
  let reps =
    let cfg = cfg_of (List.hd seeds) in
    ignore (Instance.setup_only cfg);
    max 1 (int_of_float (ceil (0.005 /. Instance.setup_only cfg)))
  in
  let sample_setup cfg =
    List.init 2 (fun _ ->
        let total = ref 0. in
        for _ = 1 to reps do
          Gc.minor ();
          total := !total +. Instance.setup_only cfg
        done;
        !total /. float_of_int reps)
  in
  (* keep only each instance's figures, so instances do not pile up
     in the heap. Its times are scaled by the host speed its own
     slices measured; the set-up samples taken just before it too *)
  let runs =
    List.mapi
      (fun index s ->
         let setup = sample_setup (cfg_of s) in
         let inst, summary_s, trace_fails =
           run_e2e ~dir ~slices w (cfg_of s)
         in
         let fails = Instance.check w ~seed ~index ~flows inst @ trace_fails in
         let cal = inst.Instance.cal in
         let by_cpu = Calib.reference_ns /. Calib.ns_per_step cal in
         let by_wall = Calib.reference_ns /. Calib.wall_ns_per_step cal in
         let r =
           { cpu = by_cpu *. Instance.cpu_s inst;
             wall = by_wall *. Instance.wall_s inst;
             ns_per_hop =
               by_cpu *. 1e9 *. Instance.sim_cpu_s inst
               /. float_of_int (Instance.hops inst);
             setup = List.map (fun x -> by_wall *. x) setup;
             summary = by_wall *. summary_s;
             peak_mb = float_of_int (inst.Instance.peak_words * 8) /. 1e6;
             failed =
               (if fails <> [] then flows
                else flows - inst.Instance.result.Runner.completed);
             fails }
         in
         log (instance_line ~index ~seed:s inst fails);
         log
           (Printf.sprintf
              "instance %d host %.1f ns per kernel step; normalized cpu_s \
               %.4f wall_s %.4f setup_s %.6g ns_per_hop %.1f summary_s %.6g"
              index (Calib.ns_per_step cal) r.cpu r.wall
              (Instance.median r.setup) r.ns_per_hop r.summary);
         r)
      seeds
  in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
  (* costs are means over instances, since their work varies with the
     seed; the heap's peak and the set-up time are medians, since one
     instance that grew its heap further or one interrupted set-up
     would swing a mean *)
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0. runs
    /. float_of_int (List.length runs)
  in
  let median f = Instance.median (List.map f runs) in
  { Report.correct = List.for_all (fun r -> r.fails = []) runs;
    attempted = k * flows;
    failed;
    failures = List.concat_map (fun r -> r.fails) runs;
    metrics =
      [ ("cpu_s", Report.Float (mean (fun r -> r.cpu)), "s");
        ("wall_s", Report.Float (mean (fun r -> r.wall)), "s");
        ("setup_s",
         Report.Float
           (Instance.median (List.concat_map (fun r -> r.setup) runs)),
         "s");
        ("ns_per_hop", Report.Float (mean (fun r -> r.ns_per_hop)), "ns");
        ("peak_mem_mb", Report.Float (median (fun r -> r.peak_mb)), "MB");
        ("summary_s", Report.Float (mean (fun r -> r.summary)), "s") ] }

(* ---- per layer ---- *)

(* Binary-encoding sink that discards what it encodes: what tracing to
   a file costs the simulation, without the file. *)
let discard_sink () =
  let b = Buffer.create (1 lsl 17) in
  fun ts ev ->
    Ppt_obs.Event.add_binary b ~ts ev;
    if Buffer.length b >= 1 lsl 16 then Buffer.clear b

let per_layer ?(log = ignore) ?flows ~dir (w : W.t) ~seed =
  let flows = Option.value flows ~default:w.W.flows in
  let cfg = w.W.config ~seed:(W.instance_seed ~seed 0) ~flows in
  (* 1. the end-to-end configuration, and the same config with tracing
     switched the other way *)
  let plain, _, trace_fails = run_e2e ~dir ~slices:0 w cfg in
  let fails =
    ref (Instance.check w ~seed ~index:0 ~flows plain @ trace_fails)
  in
  let fail fmt = Printf.ksprintf (fun s -> fails := !fails @ [ s ]) fmt in
  let traced_sim, untraced_sim =
    if w.W.traced then
      (Instance.sim_cpu_s plain,
       Instance.sim_cpu_s (Instance.run { cfg with Config.trace = None }))
    else
      (Instance.sim_cpu_s
         (Trace.with_sink (discard_sink ()) (fun () -> Instance.run cfg)),
       Instance.sim_cpu_s plain)
  in
  (* 2. the recording run *)
  let rec_ = ref None in
  let recorded =
    Trace.with_sink
      (fun ts ev ->
         match !rec_ with Some r -> Recorder.sink r ts ev | None -> ())
      (fun () ->
         Instance.run cfg ~observe:(fun _ topo ->
             rec_ := Some (Recorder.attach topo.Ppt_netsim.Topology.net)))
  in
  let r = Option.get !rec_ in
  if Instance.digest recorded <> Instance.digest plain
  || recorded.Instance.result.Runner.events
     <> plain.Instance.result.Runner.events
  then fail "the recording run diverged from the untraced run";
  (* 3. replays *)
  let q = Replay.queue cfg r in
  if q.Replay.q_mismatches > 0 then
    fail "queue replay: %d operations unlike the recording"
      q.Replay.q_mismatches;
  let sim_events, sim_cpu = Replay.sim r in
  let codec = Replay.codec (Buffer.contents r.Recorder.sample) in
  if not codec.Replay.roundtrip
  || codec.Replay.c_events <> r.Recorder.sample_events
  then fail "codec replay: the sample did not round-trip";
  let res = plain.Instance.result in
  let hops = Instance.hops plain in
  let events = res.Runner.events in
  let ns_per_event = 1e9 *. per sim_cpu sim_events in
  let queue_ns = 1e9 *. per q.Replay.q_cpu q.Replay.q_ops in
  let encode_ns = 1e9 *. per codec.Replay.encode_s codec.Replay.c_events in
  let sim_ns = 1e9 *. Instance.sim_cpu_s plain in
  let covered =
    (ns_per_event *. float_of_int events)
    +. (queue_ns *. float_of_int q.Replay.q_ops)
    +. (if w.W.traced then encode_ns *. float_of_int r.Recorder.events
        else 0.)
  in
  let gc f = f plain.Instance.t_sim -. f plain.Instance.t_setup in
  let obs_events = r.Recorder.events in
  List.iter log
    [ Printf.sprintf
        "replayed %d queue ops, %d scheduler events, %d codec events"
        q.Replay.q_ops sim_events codec.Replay.c_events;
      Printf.sprintf
        "closure: simulate %.3f s, replayed layers cover %.3f s"
        (sim_ns /. 1e9) (covered /. 1e9) ];
  let failed = !fails <> [] in
  { Report.correct = not failed;
    attempted = flows;
    failed = (if failed then flows else flows - res.Runner.completed);
    failures = !fails;
    metrics =
      Report.
        [ ("engine.events", Int events, "count");
          ("engine.ns_per_event", Float ns_per_event, "ns");
          ("engine.compactions",
           Int
             (Ppt_engine.Sim.compactions
                plain.Instance.ctx.Ppt_transport.Context.sim),
           "count");
          ("netsim.hops", Int hops, "count");
          ("netsim.queue_ns_per_op", Float queue_ns, "ns");
          ("netsim.drops", Int res.Runner.drops, "count");
          ("netsim.marks", Int res.Runner.marks, "count");
          ("netsim.trims", Int (Instance.trims plain), "count");
          ("netsim.delivered",
           Int (Ppt_netsim.Net.delivered plain.Instance.net), "count");
          ("netsim.build_s", Float (Replay.build_s cfg), "s");
          ("transport.ops", Int (Instance.transport_ops plain), "count");
          ("transport.retransmits",
           Int res.Runner.summary.Ppt_stats.Fct.total_retrans, "count");
          ("transport.efficiency", Float res.Runner.efficiency, "ratio");
          ("transport.lp_efficiency", Float res.Runner.lp_efficiency, "ratio");
          ("workload.generate_s", Float (Replay.generate_s cfg), "s");
          ("stats.summarize_s", Float (Instance.fct_summary_s plain), "s");
          ("obs.events", Int obs_events, "count");
          ("obs.bytes_per_event",
           Float (per (float_of_int (Recorder.encoded_bytes r)) obs_events),
           "B");
          ("obs.encode_ns_per_event", Float encode_ns, "ns");
          ("obs.sink_overhead", Float (ratio traced_sim untraced_sim), "ratio");
          ("obs.decode_ns_per_event",
           Float (1e9 *. per codec.Replay.decode_s codec.Replay.c_events),
           "ns");
          ("obs.summary_ns_per_event",
           Float (1e9 *. per codec.Replay.summary_s codec.Replay.c_events),
           "ns");
          ("gc.minor_words_per_hop",
           Float (per (gc (fun s -> s.Instance.minor)) hops), "words");
          ("gc.major_words_per_hop",
           Float (per (gc (fun s -> s.Instance.major)) hops), "words");
          ("gc.major_collections",
           Int (plain.Instance.t_sim.Instance.major_gcs
                - plain.Instance.t_setup.Instance.major_gcs),
           "count");
          ("harness.remainder_share", Float (1. -. (covered /. sim_ns)),
           "ratio");
          ("harness.trace_overhead",
           Float (ratio (Instance.wall_s recorded) (Instance.wall_s plain)),
           "ratio") ] }
