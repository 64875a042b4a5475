(* Bechamel micro-benchmarks of the simulator's hot paths: the event
   heap, the priority queue discipline, CDF sampling, the PRNG, and a
   small end-to-end DCTCP/PPT simulation per iteration. *)

open Bechamel
open Toolkit
open Ppt_engine
open Ppt_netsim

let heap_push_pop () =
  let h = Heap.create () in
  let rng = Rng.create 7 in
  Staged.stage (fun () ->
      for i = 0 to 255 do
        Heap.push h ~key:(Rng.int rng 1_000_000) ~tie:i i
      done;
      while not (Heap.is_empty h) do
        ignore (Heap.pop_exn h)
      done)

(* Skewed timers through the scheduler itself: roughly half the
   timestamps land inside the calendar wheel's ~262us horizon, the
   rest spread exponentially out to ~1s, so they sit in the overflow
   heap and are re-staged into the wheel as it advances. The plain
   heap micro above cannot see that path. *)
let sim_calendar_skew () =
  let rng = Rng.create 13 in
  let ts =
    Array.init 256 (fun _ ->
        let e = 4 + Rng.int rng 26 in            (* 2^4 .. 2^30 ns *)
        (1 lsl e) + Rng.int rng (1 lsl e))
  in
  Staged.stage (fun () ->
      let sim = Sim.create () in
      Array.iter
        (fun at -> ignore (Sim.schedule_at sim at (fun () -> ())))
        ts;
      Sim.run sim)

(* Fabric-density scheduling: 1,024 self-rescheduling timers, each
   re-armed 1..1000 ns ahead, keep about 1,024 timers pending within
   one microsecond at any moment, as in the fig12 40/100G fabric
   (an event every ~2.4 ns). Every wheel bucket then holds many timers
   at once, which the current bucket's lists take at each drain. One
   iteration advances the clock by 1 us, about 2,000 events. The
   sparse micros above never put more than a few timers in a
   bucket. *)
let sim_dense () =
  let sim = Sim.create () in
  let rng = Rng.create 17 in
  let delays = Array.init 4096 (fun _ -> 1 + Rng.int rng 1_000) in
  let k = ref 0 in
  let rec tick () =
    k := (!k + 1) land 4095;
    ignore (Sim.schedule sim ~after:delays.(!k) tick)
  in
  for _ = 1 to 1024 do
    ignore (Sim.schedule sim ~after:(Rng.int rng 1_000) tick)
  done;
  Staged.stage (fun () -> Sim.run ~until:(Sim.now sim + 1_000) sim)

let prio_queue_cycle () =
  let q =
    Prio_queue.create
      (Prio_queue.default_config ~buffer_bytes:(Units.mb 4))
  in
  let pkts =
    Array.init 256 (fun i ->
        Packet.make ~seq:i ~payload:1000 ~prio:(i mod 8) ~flow:1 ~src:0
          ~dst:1 Packet.Data)
  in
  Staged.stage (fun () ->
      Array.iter (fun p -> ignore (Prio_queue.enqueue q p)) pkts;
      let rec drain () =
        match Prio_queue.dequeue q with Some _ -> drain () | None -> ()
      in
      drain ())

let cdf_sampling () =
  let rng = Rng.create 11 in
  let cdf = Ppt_workload.Dists.web_search in
  Staged.stage (fun () ->
      for _ = 1 to 64 do
        ignore (Ppt_workload.Cdf.sample cdf rng)
      done)

let rng_floats () =
  let rng = Rng.create 3 in
  Staged.stage (fun () ->
      for _ = 1 to 256 do
        ignore (Rng.float rng)
      done)

(* One tiny end-to-end simulation per iteration: 8 flows over a star. *)
let small_sim factory () =
  Staged.stage (fun () ->
      let sim = Sim.create () in
      let qcfg =
        { (Prio_queue.default_config ~buffer_bytes:(Units.kb 200)) with
          Prio_queue.mark_thresholds =
            Prio_queue.mark_bands ~hp:(Some (Units.kb 60))
              ~lp:(Some (Units.kb 40)) }
      in
      let topo =
        Topology.star ~sim ~n_hosts:4 ~rate:(Units.gbps 10)
          ~delay:(Units.us 2) ~qcfg ()
      in
      let ctx =
        Ppt_transport.Context.of_topology ~rto_min:(Units.ms 1)
          ~rng:(Rng.create 5) topo
      in
      let t = factory ctx in
      for i = 0 to 7 do
        let flow =
          Ppt_transport.Flow.create ~id:i ~src:(i mod 3) ~dst:3
            ~size:30_000 ~start:(i * 1_000)
        in
        ignore
          (Sim.schedule_at sim flow.Ppt_transport.Flow.start (fun () ->
               t.Ppt_transport.Endpoint.t_start flow))
      done;
      Sim.run ~until:(Units.sec 1) sim)

(* The same end-to-end run with the production binary encoder as the
   sink: the cost of tracing every event of the run (event
   construction plus varint encoding into a reused buffer, no file
   I/O). The untraced [small_sim] numbers above are the guard for the
   tracing-off hot path — every instrumentation site is still compiled
   in there, behind the single [!Trace.enabled] load. *)
let small_sim_traced factory () =
  let inner = Staged.unstage (small_sim factory ()) in
  let buf = Buffer.create (1 lsl 20) in
  Staged.stage (fun () ->
      Buffer.clear buf;
      let sink ts ev = Ppt_obs.Event.add_binary buf ~ts ev in
      Ppt_obs.Trace.with_sink sink inner)

let tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [ Test.make ~name:"heap: 256 push+pop" (heap_push_pop ());
      Test.make ~name:"sim: 256 skewed timers" (sim_calendar_skew ());
      Test.make ~name:"sim: 1024 dense timers, 1us" (sim_dense ());
      Test.make ~name:"prio-queue: 256 enq+deq" (prio_queue_cycle ());
      Test.make ~name:"cdf: 64 samples" (cdf_sampling ());
      Test.make ~name:"rng: 256 floats" (rng_floats ());
      Test.make ~name:"sim: 8-flow dctcp run"
        (small_sim (Ppt_transport.Dctcp.make ()) ());
      Test.make ~name:"sim: 8-flow ppt run"
        (small_sim (Ppt_core.Ppt.make ()) ());
      Test.make ~name:"sim: 8-flow dctcp run traced"
        (small_sim_traced (Ppt_transport.Dctcp.make ()) ()) ]

(* Per-iteration OLS estimates: wall time plus GC allocation, so the
   bench report can track words/iteration alongside ns/iteration. *)
type est = {
  ns : float;          (* ns per iteration *)
  minor_w : float;     (* minor-heap words allocated per iteration *)
  major_w : float;     (* major-heap words allocated per iteration *)
}

(* Measure every test and return (name, est) sorted by name; nan when
   bechamel could not produce an estimate. *)
let estimates_once () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:Measure.[| run |]
  in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let est_of tbl name =
    match Hashtbl.find_opt tbl name with
    | None -> nan
    | Some ols ->
      (match Analyze.OLS.estimates ols with
       | Some [ est ] -> est
       | Some _ | None -> nan)
  in
  let t_ns = Analyze.all ols Instance.monotonic_clock raw in
  let t_minor = Analyze.all ols Instance.minor_allocated raw in
  let t_major = Analyze.all ols Instance.major_allocated raw in
  Hashtbl.fold (fun name _ acc ->
      (name,
       { ns = est_of t_ns name;
         minor_w = est_of t_minor name;
         major_w = est_of t_major name })
      :: acc)
    t_ns []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [repeat] runs the whole pass that many times and keeps each test's
   minimum-ns estimate (with its companion allocation columns, which
   are deterministic anyway). Background load can only inflate a
   timing, never deflate it, so the minimum over passes is the
   standard rejection for machine noise; the report uses 3. *)
let estimates ?(repeat = 1) () =
  let best : (string, est) Hashtbl.t = Hashtbl.create 16 in
  for _ = 1 to repeat do
    List.iter
      (fun (name, (e : est)) ->
         match Hashtbl.find_opt best name with
         | Some prev
           when Float.is_nan e.ns
                || (not (Float.is_nan prev.ns) && prev.ns <= e.ns) ->
           ()
         | Some _ | None -> Hashtbl.replace best name e)
      (estimates_once ())
  done;
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run ppf =
  Format.fprintf ppf
    "@\n== micro-benchmarks (bechamel, per iteration) ==@\n";
  List.iter (fun (name, e) ->
      if Float.is_nan e.ns then
        Format.fprintf ppf "  %-32s (no estimate)@\n" name
      else
        Format.fprintf ppf "  %-32s %12.1f ns %12.1f minor words@\n"
          name e.ns e.minor_w)
    (estimates ())
