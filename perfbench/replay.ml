(* Replays of a recorded run through one layer's public functions at a
   time, each timed on its own: the queue discipline, the scheduler and
   the trace codec. Dividing a replay's host time by its operation
   count gives the layer's cost per operation in the real run. *)

open Ppt_engine
open Ppt_netsim
open Ppt_harness
module Event = Ppt_obs.Event
module Summary = Ppt_obs.Summary
module R = Recorder

let cpu = Instance.cpu

(* ---- lib/netsim: Prio_queue ---- *)

type queue = {
  q_ops : int;           (* enqueue attempts plus dequeues *)
  q_cpu : float;
  q_mismatches : int;    (* verdicts or dequeues unlike the recording *)
}

(* A fresh queue per port, configured as the run configured it: host
   NICs have their own buffer and no marking, switch ports the
   workload's switch configuration. A mismatch with the live port's
   buffer or marking thresholds is reported as a failure. *)
let queues (cfg : Config.t) (r : R.t) =
  let bad = ref 0 in
  let qs =
    Array.init (R.n_ports r) (fun gid ->
        let port = R.port r gid in
        let live = port.Net.q in
        let qcfg =
          if (Net.node r.R.net port.Net.owner).Net.is_host then
            Prio_queue.default_config
              ~buffer_bytes:(Prio_queue.buffer_bytes live)
          else Runner.qcfg_of cfg Workloads.scheme ~lp_buffer_cap:None
        in
        let q = Prio_queue.create qcfg in
        if Prio_queue.buffer_bytes q <> Prio_queue.buffer_bytes live
        || List.exists
             (fun p -> Prio_queue.mark_threshold q p
                       <> Prio_queue.mark_threshold live p)
             (List.init Prio_queue.n_prios Fun.id)
        then incr bad;
        q)
  in
  (qs, !bad)

let queue cfg (r : R.t) =
  let qs, bad = queues cfg r in
  let ops = r.R.ops in
  let mism = ref 0 in
  let c0 = cpu () in
  for i = 0 to Ops.length ops - 1 do
    let op = Ops.get ops i in
    let q = qs.(R.op_port op) in
    if R.is_dequeue op then begin
      let p = Prio_queue.dequeue_or_dummy q in
      if p == Packet.dummy || p.Packet.wire <> R.deq_wire op
         || R.clamp_prio p.Packet.prio <> R.deq_prio op
      then incr mism;
      Packet.release p
    end else begin
      let b = R.enq_bits op in
      let p =
        Packet.make ~prio:(R.bits_prio b) ~ecn_capable:(R.bits_flag b 0)
          ~sel_drop:(R.bits_flag b 2) ~flow:0 ~src:0 ~dst:0 (R.bits_kind b)
      in
      p.Packet.wire <- R.bits_wire b;
      p.Packet.ecn_ce <- R.bits_flag b 1;
      p.Packet.trimmed <- R.bits_flag b 3;
      let was_ce = p.Packet.ecn_ce in
      let v = Prio_queue.enqueue q p in
      if v <> R.enq_verdict op
      || (p.Packet.ecn_ce && not was_ce) <> R.enq_marked op
      then incr mism;
      if v = Prio_queue.Dropped then Packet.release p
    end
  done;
  let c1 = cpu () in
  { q_ops = Ops.length ops; q_cpu = c1 -. c0;
    q_mismatches = !mism + bad + r.R.unmatched }

(* ---- lib/engine: Sim ---- *)

(* Each recorded transmission schedules its completion and its far-end
   arrival at the recorded offsets (serialization, then propagation),
   from a driver event at the recorded start time. Returns the events
   the scheduler processed and its host seconds. *)
let sim (r : R.t) =
  let ports = Array.init (R.n_ports r) (R.port r) in
  let memo_wire = Array.make (Array.length ports) (-1) in
  let memo_tx = Array.make (Array.length ports) 0 in
  let ops = r.R.ops in
  let n = Ops.length ops in
  let s = Sim.create () in
  let on_done (_ : int) = () and on_arrive (_ : int) = () in
  let i = ref 0 in
  let skip_enqueues () =
    while !i < n && not (R.is_dequeue (Ops.get ops !i)) do incr i done
  in
  let rec drive () =
    let now = Sim.now s in
    skip_enqueues ();
    while !i < n && R.deq_time (Ops.get ops !i) <= now do
      let op = Ops.get ops !i in
      let g = R.op_port op in
      let wire = R.deq_wire op in
      if memo_wire.(g) <> wire then begin
        memo_wire.(g) <- wire;
        memo_tx.(g) <- Units.tx_time ~rate:ports.(g).Net.rate ~bytes:wire
      end;
      let tx = memo_tx.(g) in
      ignore (Sim.schedule1 s ~after:tx on_done g);
      ignore (Sim.schedule1 s ~after:(tx + ports.(g).Net.delay) on_arrive g);
      incr i;
      skip_enqueues ()
    done;
    if !i < n then
      ignore (Sim.schedule_at s (R.deq_time (Ops.get ops !i)) drive)
  in
  skip_enqueues ();
  if !i < n then ignore (Sim.schedule_at s (R.deq_time (Ops.get ops !i)) drive);
  let c0 = cpu () in
  Sim.run s;
  let c1 = cpu () in
  (Sim.events_processed s, c1 -. c0)

(* ---- lib/obs: Event codec and Summary ---- *)

type codec = {
  c_events : int;
  decode_s : float;
  encode_s : float;
  summary_s : float;
  roundtrip : bool;   (* re-encoding reproduced the bytes *)
}

(* Decode the sample in chunks, re-encode each chunk and fold it into a
   summary, timing the three steps apart. *)
let codec (sample : string) =
  let chunk = Array.make 65536 (0, Event.Flow_start { flow = 0; size = 0 }) in
  let buf = Buffer.create (1 lsl 20) in
  let pos = ref 0 and n = ref 0 and roundtrip = ref true in
  let summary = ref (Summary.create ()) in
  let dec = ref 0. and enc = ref 0. and sum = ref 0. in
  let finished = ref false in
  while not !finished do
    let start = !pos in
    let c0 = cpu () in
    let k = ref 0 in
    while !k < Array.length chunk && not !finished do
      match Event.of_binary sample pos with
      | Some e -> chunk.(!k) <- e; incr k
      | None -> finished := true
    done;
    let c1 = cpu () in
    Buffer.clear buf;
    for j = 0 to !k - 1 do
      let ts, ev = chunk.(j) in
      Event.add_binary buf ~ts ev
    done;
    let c2 = cpu () in
    for j = 0 to !k - 1 do
      let ts, ev = chunk.(j) in
      summary := Summary.add !summary ts ev
    done;
    let c3 = cpu () in
    if Buffer.contents buf <> String.sub sample start (!pos - start) then
      roundtrip := false;
    dec := !dec +. (c1 -. c0);
    enc := !enc +. (c2 -. c1);
    sum := !sum +. (c3 -. c2);
    n := !n + !k
  done;
  { c_events = !n; decode_s = !dec; encode_s = !enc; summary_s = !sum;
    roundtrip = !roundtrip && (!summary).Summary.events = !n }

(* ---- set-up: lib/workload, the topology builder ---- *)

let build_s (cfg : Config.t) =
  Instance.median_time (fun () ->
      ignore (Runner.build_topology (Sim.create ()) cfg Workloads.scheme
                ~lp_buffer_cap:None))

let generate_s (cfg : Config.t) =
  let topo =
    Runner.build_topology (Sim.create ()) cfg Workloads.scheme
      ~lp_buffer_cap:None
  in
  let pattern = Runner.pattern_of cfg topo in
  Instance.median_time (fun () ->
      ignore
        (Ppt_workload.Trace.generate
           ~rng:(Rng.split (Rng.create cfg.Config.seed))
           ~cdf:cfg.Config.workload ~pattern
           ~edge_rate:topo.Topology.edge_rate ~load:cfg.Config.load
           ~n_flows:cfg.Config.n_flows ()))
