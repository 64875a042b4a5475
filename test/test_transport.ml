(* End-to-end tests for the reliable sender core and DCTCP. *)

open Ppt_engine
open Ppt_transport

let check = Alcotest.check

(* One 100KB DCTCP flow on an idle network completes at roughly
   line rate. *)
let test_single_flow_completes () =
  let _sim, _topo, ctx = Helpers.star () in
  let dctcp = Dctcp.make () ctx in
  Helpers.run_flows ctx dctcp [ (0, 1, 100_000, 0) ];
  match Helpers.fct_of ctx 0 with
  | None -> Alcotest.fail "flow did not complete"
  | Some fct ->
    (* 100KB at 10G is 80us of serialization; allow ramp-up slack. *)
    check Alcotest.bool
      (Printf.sprintf "fct=%dns plausible" fct)
      true
      (fct > 80_000 && fct < 2_000_000)

let test_tiny_flow_completes () =
  let _sim, _topo, ctx = Helpers.star () in
  let dctcp = Dctcp.make () ctx in
  Helpers.run_flows ctx dctcp [ (0, 1, 1, 0) ];
  check Alcotest.bool "1-byte flow finishes" true
    (Helpers.fct_of ctx 0 <> None)

let test_many_flows_complete () =
  let _sim, _topo, ctx = Helpers.star ~n:6 () in
  let dctcp = Dctcp.make () ctx in
  let specs =
    List.init 30 (fun i ->
        let src = i mod 5 in
        (src, 5, 10_000 + (i * 997), i * 10_000))
  in
  Helpers.run_flows ctx dctcp specs;
  check Alcotest.int "all flows complete" 30
    (Ppt_stats.Fct.count ctx.Context.fct)

(* Two long flows sharing a bottleneck should finish in about twice the
   solo time each: a fairness sanity check. *)
let test_two_flow_sharing () =
  let _sim, _topo, ctx = Helpers.star () in
  let dctcp = Dctcp.make () ctx in
  Helpers.run_flows ctx dctcp
    [ (0, 2, 2_000_000, 0); (1, 2, 2_000_000, 0) ];
  let f0 = Option.get (Helpers.fct_of ctx 0) in
  let f1 = Option.get (Helpers.fct_of ctx 1) in
  (* solo time ~1.6ms; shared both should take ~3.2ms, and neither
     should be starved (>4x the other). *)
  check Alcotest.bool
    (Printf.sprintf "f0=%d f1=%d both near fair share" f0 f1)
    true
    (f0 > 2_400_000 && f1 > 2_400_000
     && f0 < 8_000_000 && f1 < 8_000_000)

(* Losses are repaired: shrink the switch buffer so overflow happens
   and verify all data still arrives. *)
let test_loss_recovery () =
  let qcfg =
    Helpers.default_qcfg ~buffer:(Units.kb 15) ~hp_thresh:(Units.kb 200)
      ~lp_thresh:(Units.kb 200) ()
    (* marking thresholds above the buffer: pure drop-tail, no ECN *)
  in
  let _sim, _topo, ctx = Helpers.star ~n:5 ~qcfg () in
  let dctcp = Dctcp.make () ctx in
  let specs = List.init 4 (fun i -> (i, 4, 500_000, 0)) in
  Helpers.run_flows ctx dctcp specs;
  check Alcotest.int "all complete despite drops" 4
    (Ppt_stats.Fct.count ctx.Context.fct);
  check Alcotest.bool "drops actually happened" true
    (Ppt_netsim.Net.total_drops ctx.Context.net > 0)

(* ECN marking keeps the queue short: with DCTCP the bottleneck should
   see zero drops where plain drop-tail would overflow. *)
let test_ecn_prevents_drops () =
  let _sim, _topo, ctx = Helpers.star ~n:5 () in
  let dctcp = Dctcp.make () ctx in
  let specs = List.init 4 (fun i -> (i, 4, 1_000_000, 0)) in
  Helpers.run_flows ctx dctcp specs;
  check Alcotest.int "all complete" 4 (Ppt_stats.Fct.count ctx.Context.fct);
  check Alcotest.int "no drops with ECN" 0
    (Ppt_netsim.Net.total_drops ctx.Context.net);
  check Alcotest.bool "marks happened" true
    (Ppt_netsim.Net.total_marks ctx.Context.net > 0)

(* The DCTCP view exposes alpha decaying towards zero on an
   uncongested path and wmax tracking the top window. *)
let test_dctcp_view () =
  let _sim, _topo, ctx = Helpers.star () in
  let seen_alpha = ref 2.0 in
  let probe =
    Endpoint.window ~params:(Reliable.default_params ())
      { Dctcp.policy with
        Reliable.release = (fun snd ->
            seen_alpha := Dctcp.policy.Reliable.alpha snd) }
      ()
  in
  Helpers.run_flows ctx (probe ctx) [ (0, 1, 3_000_000, 0) ];
  (* alpha starts at 1.0; a long-running flow must have updated it to a
     genuine congestion estimate strictly inside (0, 1). *)
  check Alcotest.bool
    (Printf.sprintf "alpha=%f updated and bounded" !seen_alpha)
    true (!seen_alpha > 0. && !seen_alpha < 0.9)

let test_flow_counters () =
  let _sim, _topo, ctx = Helpers.star () in
  let dctcp = Dctcp.make () ctx in
  Helpers.run_flows ctx dctcp [ (0, 1, 123_456, 0) ];
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.bool "hcp payload covers flow" true
    (r.Ppt_stats.Fct.hcp_payload >= 123_456);
  check Alcotest.int "no lcp bytes for plain dctcp" 0
    r.Ppt_stats.Fct.lcp_payload

let test_determinism () =
  let run () =
    let _sim, _topo, ctx = Helpers.star ~n:6 () in
    let dctcp = Dctcp.make () ctx in
    let specs =
      List.init 20 (fun i -> (i mod 5, 5, 40_000 + (i * 321), i * 5_000))
    in
    Helpers.run_flows ctx dctcp specs;
    List.map (fun r -> (r.Ppt_stats.Fct.flow, r.Ppt_stats.Fct.finish))
      (Ppt_stats.Fct.records ctx.Context.fct)
  in
  check Alcotest.bool "identical runs" true (run () = run ())

(* --- wire.ml: protocol headers --- *)

module Packet = Ppt_netsim.Packet

(* Every header kind reads back what was written, on a freshly made
   packet of its kind. *)
let test_wire_round_trip () =
  let mk kind = Packet.make ~flow:1 ~src:0 ~dst:1 kind in
  let int = Alcotest.int and bool = Alcotest.bool in
  List.iter
    (fun first_rtt ->
       let d = mk Packet.Data in
       Wire.set_data d ~tx:12_345 ~first_rtt;
       check int "data tx" 12_345 (Wire.data_tx d);
       check bool "data first_rtt" first_rtt (Wire.first_rtt d);
       Packet.release d)
    [ true; false ];
  List.iter
    (fun (sack0, sack1, ece) ->
       let a = mk Packet.Ack in
       Wire.set_ack a ~cum:4 ~sack0 ~sack1 ~ece ~data_tx:77;
       check int "ack cum" 4 (Wire.ack_cum a);
       check int "ack sack0" sack0 (Wire.ack_sack0 a);
       check int "ack sack1" sack1 (Wire.ack_sack1 a);
       check bool "ack ece" ece (Wire.ack_ece a);
       check int "ack data_tx" 77 (Wire.ack_data_tx a);
       check int "no telemetry" 0 (Packet.tel_count a);
       Packet.release a)
    [ (Wire.no_sack, Wire.no_sack, false); (5, Wire.no_sack, true);
      (6, 5, true); (0, 1, false) ];
  let g = mk Packet.Grant in
  Wire.set_grant g ~cum:3 ~upto:11 ~prio:5;
  check int "grant cum" 3 (Wire.grant_cum g);
  check int "grant upto" 11 (Wire.grant_upto g);
  check int "grant prio" 5 (Wire.grant_prio g);
  let pl = mk Packet.Pull in
  Wire.set_pull pl ~cum:9;
  check int "pull cum" 9 (Wire.pull_cum pl);
  let n = mk Packet.Nack in
  Wire.set_nack n ~seq:42;
  check int "nack seq" 42 (Wire.nack_seq n);
  List.iter Packet.release [ g; pl; n ]

(* An ack holds at most two SACKs, so the receiver refuses to batch
   more (or fewer than one) LCP packets per ack. *)
let test_receiver_lcp_batch_range () =
  let _sim, _topo, ctx = Helpers.star () in
  let flow = Flow.create ~id:0 ~src:0 ~dst:1 ~size:10_000 ~start:0 in
  List.iter
    (fun lcp_batch ->
       match Receiver.create ~lcp_batch ctx flow with
       | _ -> Alcotest.failf "lcp_batch %d accepted" lcp_batch
       | exception Invalid_argument msg ->
         check Alcotest.string "names the argument"
           (Printf.sprintf "Receiver.create: lcp_batch %d outside 1..2"
              lcp_batch)
           msg)
    [ 0; 3; -1 ];
  List.iter
    (fun lcp_batch ->
       check Alcotest.int "accepted" lcp_batch
         (Receiver.create ~lcp_batch ctx flow).Receiver.lcp_batch)
    [ 1; 2 ]

(* The per-packet header path allocates nothing: making a data packet
   and an ack, writing their headers, reading every getter and
   releasing both leaves [Gc.minor_words] where it was: [make] takes
   the records [release] put back. [make] gets no optional arguments
   here, so the guard also holds in the dev profile, where [-opaque]
   boxes them at every call. *)
let test_wire_no_alloc () =
  let cycles n =
    let sum = ref 0 in
    for i = 1 to n do
      let d = Packet.make ~flow:1 ~src:0 ~dst:1 Packet.Data in
      Wire.set_data d ~tx:i ~first_rtt:(i land 1 = 0);
      let a = Packet.make ~flow:1 ~src:1 ~dst:0 Packet.Ack in
      Wire.set_ack a ~cum:i ~sack0:(i + 1) ~sack1:(i + 2)
        ~ece:(i land 2 = 0) ~data_tx:(Wire.data_tx d);
      sum := !sum + Wire.ack_cum a + Wire.ack_sack0 a + Wire.ack_sack1 a
             + Wire.ack_data_tx a + Wire.grant_cum a + Wire.grant_upto a
             + Wire.grant_prio a + Wire.pull_cum a + Wire.nack_seq a;
      if Wire.ack_ece a then incr sum;
      if Wire.first_rtt d then incr sum;
      Packet.release a;
      Packet.release d
    done;
    !sum
  in
  ignore (cycles 1_000);
  let before = Gc.minor_words () in
  let sum = cycles 10_000 in
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words over 10k header cycles" 0. words;
  check Alcotest.bool "getters read the headers" true (sum > 0)

(* A flow's set-up allocates its sender and receiver records, the
   LCP's state and the closures the flow must own (packet handlers,
   teardown, timers); PPT's policy, params and tagger are built once
   per transport. One-segment PPT flows on the testbed star (15 hosts,
   10G, 19us links), each run to completion before the next starts,
   so the packet arena recycles; the count covers the factory call and
   the teardown [Context.flow_finished] runs. *)
let test_ppt_flow_setup_alloc () =
  let sim, _topo, ctx = Helpers.star ~n:15 ~delay:(Units.us 19) () in
  let ppt = Ppt_core.Ppt.make () ctx in
  let words = ref 0 in
  let count f =
    let before = Gc.minor_words () in
    f ();
    words := !words + int_of_float (Gc.minor_words () -. before)
  in
  let flow_once i =
    let flow =
      Flow.create ~id:i ~src:(i mod 14) ~dst:14 ~size:1_000
        ~start:(Sim.now sim)
    in
    Context.flow_started ctx flow;
    count (fun () -> ppt flow);
    let teardown = flow.Flow.teardown in
    flow.Flow.teardown <- (fun () -> count teardown);
    Sim.run sim
  in
  for i = 0 to 9 do flow_once i done;
  words := 0;
  let n = 1_000 in
  for i = 10 to 9 + n do flow_once i done;
  let per_flow = float_of_int !words /. float_of_int n in
  check Alcotest.int "every flow completed" (n + 10)
    (Ppt_stats.Fct.count ctx.Context.fct);
  check Alcotest.bool
    (Printf.sprintf "%.1f minor words per flow set-up and teardown"
       per_flow)
    true (per_flow <= 120.)

(* DCTCP's per-ack work stores into the sender's flat [cc] record, so
   10k acks that grow the window and cut it on congestion echoes
   allocate nothing. Each ack confirms the next segment and every 8th
   echoes ECE; the data an ack lets out is delivered (to no handler)
   before the next ack, so the packet arena recycles. It holds in the
   dev profile too, where no call between modules is inlined: data is
   built with [Packet.acquire], which has no optional arguments, and a
   policy stores its window before [Reliable.commit_cwnd] instead of
   passing it as a float. *)
let test_dctcp_ack_no_alloc () =
  let sim, _topo, ctx = Helpers.star () in
  let nseg = 20_000 in
  let flow =
    Flow.create ~id:0 ~src:0 ~dst:1 ~size:(nseg * Packet.max_payload)
      ~start:0
  in
  let snd =
    Reliable.create ctx flow (Reliable.default_params ()) Dctcp.policy ()
  in
  Reliable.start snd;
  let words = ref 0 and grew = ref 0 and cut = ref 0 in
  let ack k =
    let p = Packet.make ~flow:0 ~src:1 ~dst:0 Packet.Ack in
    Wire.set_ack p ~cum:k ~sack0:(k - 1) ~sack1:Wire.no_sack
      ~ece:(k mod 8 = 0) ~data_tx:0;
    let cwnd = Reliable.cwnd snd in
    let before = Gc.minor_words () in
    Reliable.on_ack snd p;
    words := !words + int_of_float (Gc.minor_words () -. before);
    if Reliable.cwnd snd > cwnd then incr grew
    else if Reliable.cwnd snd < cwnd then incr cut;
    Packet.release p;
    Sim.run ~until:(Sim.now sim + Units.us 20) sim
  in
  for k = 1 to 1_000 do ack k done;
  words := 0;
  grew := 0;
  cut := 0;
  for k = 1_001 to 11_000 do ack k done;
  check Alcotest.int "minor words over 10k DCTCP acks" 0 !words;
  check Alcotest.bool
    (Printf.sprintf "window grew (%d acks) and was cut (%d)" !grew !cut)
    true (!grew > 0 && !cut > 0);
  Reliable.shutdown snd

(* --- tcp.ml: slow start / loss recovery state machine --- *)

(* What a policy does to change the window. *)
let set_cwnd (s : _ Reliable.t) w =
  s.Reliable.cc.Reliable.cwnd <- w;
  Reliable.commit_cwnd s

let test_tcp_congestion_control () =
  let _sim, _topo, ctx = Helpers.star () in
  let flow = Flow.create ~id:0 ~src:0 ~dst:1 ~size:1_000_000 ~start:0 in
  let mss = Ppt_netsim.Packet.max_payload in
  let fmss = float_of_int mss in
  let params =
    Reliable.default_params ~initial_cwnd:(3 * mss) ~ecn_capable:false ()
  in
  let s = Reliable.create ctx flow params Tcp.policy () in
  let ack () =
    Tcp.policy.Reliable.on_ack s Ppt_netsim.Packet.dummy ~newly:mss
  in
  let eps = Alcotest.float 0.01 in
  (* slow start: every newly acked byte grows cwnd by one byte *)
  ack ();
  check eps "slow start grows one seg per acked seg" (4. *. fmss)
    (Reliable.cwnd s);
  (* fast-retransmit loss: window halves *)
  set_cwnd s (20. *. fmss);
  Tcp.policy.Reliable.on_loss s;
  check eps "loss halves the window" (10. *. fmss) (Reliable.cwnd s);
  (* now above ssthresh: congestion avoidance, additive growth *)
  let before = Reliable.cwnd s in
  ack ();
  let growth = Reliable.cwnd s -. before in
  check Alcotest.bool
    (Printf.sprintf "additive growth (%.1fB) well below a segment"
       growth)
    true
    (growth > 0. && growth < fmss /. 2.);
  (* halving is floored at two segments *)
  set_cwnd s (2. *. fmss);
  Tcp.policy.Reliable.on_loss s;
  check eps "ssthresh floored at 2 mss" (2. *. fmss) (Reliable.cwnd s);
  (* timeout: back to one segment, then slow start resumes *)
  set_cwnd s (20. *. fmss);
  Tcp.policy.Reliable.on_timeout s;
  check eps "timeout resets to 1 mss" fmss (Reliable.cwnd s);
  ack ();
  check eps "slow start resumes below ssthresh" (2. *. fmss)
    (Reliable.cwnd s)

(* End to end: no ECN, shallow shared buffer, an incast -- TCP must
   lose packets and still complete every flow via retransmission. *)
let test_tcp_loss_recovery_e2e () =
  let qcfg =
    { (Helpers.default_qcfg ~buffer:(Units.kb 30) ()) with
      Ppt_netsim.Prio_queue.mark_thresholds =
        Ppt_netsim.Prio_queue.no_marking }
  in
  let _sim, _topo, ctx = Helpers.star ~qcfg () in
  let tcp = Tcp.make () ctx in
  Helpers.run_flows ctx tcp
    [ (0, 3, 400_000, 0); (1, 3, 400_000, 0); (2, 3, 400_000, 0) ];
  check Alcotest.int "all flows complete" 3 ctx.Context.completed;
  let records = Ppt_stats.Fct.records ctx.Context.fct in
  let retrans =
    List.fold_left (fun a r -> a + r.Ppt_stats.Fct.retrans) 0 records
  in
  check Alcotest.bool "drops repaired by retransmission" true
    (retrans > 0)

(* --- halfback.ml: pace-out + replay --- *)

let test_halfback_replay_small_flow () =
  let _sim, _topo, ctx = Helpers.star () in
  let hb = Halfback.make () ctx in
  (* below the 141KB burst threshold: paced out in one RTT, tail
     proactively replayed on the low-priority loop *)
  Helpers.run_flows ctx hb [ (0, 1, 100_000, 0) ];
  check Alcotest.bool "flow completed" true (Helpers.fct_of ctx 0 <> None);
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.bool "replayed tail rides the low loop" true
    (r.Ppt_stats.Fct.lcp_payload > 0);
  check Alcotest.bool "replay bounded by replay_segs" true
    (r.Ppt_stats.Fct.lcp_payload
     <= Halfback.replay_segs
        * Ppt_netsim.Packet.max_payload)

let test_halfback_large_flow_plain () =
  let _sim, _topo, ctx = Helpers.star () in
  let hb = Halfback.make () ctx in
  Helpers.run_flows ctx hb [ (0, 1, 1_000_000, 0) ];
  check Alcotest.bool "flow completed" true (Helpers.fct_of ctx 0 <> None);
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.int "no replay for large flows" 0
    r.Ppt_stats.Fct.lcp_payload

(* --- the launcher ------------------------------------------------------ *)

(* Six PPT flows on a star: one at 0, two sharing a start. *)
let launch_specs =
  List.mapi
    (fun id (src, dst, size, start) ->
       { Ppt_workload.Trace.id; src; dst; size; start })
    [ (0, 3, 300_000, 0); (1, 3, 40_000, 10_000); (2, 3, 120_000, 10_000);
      (3, 0, 200_000, 25_000); (1, 2, 8_000, 60_000);
      (0, 2, 500_000, 90_000) ]

(* The launch [Endpoint.launch] replaces: every start scheduled up
   front, in list order. *)
let launch_up_front ctx start specs =
  List.iter
    (fun (spec : Ppt_workload.Trace.spec) ->
       let flow = Flow.of_spec spec in
       ignore (Sim.schedule_at ctx.Context.sim spec.start (fun () ->
           Context.flow_started ctx flow;
           start flow)))
    specs

let launched_run launch specs =
  let sim, _topo, ctx = Helpers.star () in
  let ring = Ppt_obs.Trace.Ring.create ~capacity:(1 lsl 19) () in
  Ppt_obs.Trace.with_sink (Ppt_obs.Trace.Ring.sink ring) (fun () ->
      launch ctx (Ppt_core.Ppt.make () ctx) specs;
      Sim.run ~until:(Units.sec 30) sim);
  check Alcotest.int "ring kept every event" 0
    (Ppt_obs.Trace.Ring.dropped ring);
  (Ppt_stats.Fct.records ctx.Context.fct, Sim.events_processed sim,
   Ppt_obs.Trace.Ring.to_list ring)

let test_launch_matches_up_front () =
  let records, events, trace =
    launched_run Helpers.launch_specs launch_specs
  in
  let records', events', trace' =
    launched_run launch_up_front launch_specs
  in
  check Alcotest.int "all six complete" 6 (List.length records);
  check Alcotest.bool "same FCT records" true (records = records');
  check Alcotest.int "same events processed" events' events;
  check Alcotest.int "same trace length" (List.length trace')
    (List.length trace);
  check Alcotest.bool "same trace events" true (trace = trace')

let test_launch_refuses_unsorted () =
  let sim, _topo, ctx = Helpers.star () in
  Helpers.launch_specs ctx (Dctcp.make () ctx) (List.rev launch_specs);
  match Sim.run ~until:(Units.sec 30) sim with
  | () -> Alcotest.fail "a start before the previous one was accepted"
  | exception Invalid_argument _ -> ()

(* --- flow.ml: the receive scoreboard every transport shares --- *)

(* A three-segment flow (1460 + 1460 + 100 bytes) and what its receiver
   is fed: segment 2 by the low-priority loop, a duplicate of it by the
   primary loop, a segment past the end, segment 0 and a duplicate of
   it, then segment 1, which completes the flow, and a duplicate after
   completion. Each row also gives the cumulative point and the payload
   credited to each loop once the packet is in. *)
let scoreboard_size = (2 * Packet.max_payload) + 100

let scoreboard_arrivals =
  Packet.
    [ (2, L, 0, 0, 100);
      (2, H, 0, 0, 100);
      (3, H, 0, 0, 100);
      (0, H, 1, 1460, 100);
      (0, L, 1, 1460, 100);
      (1, H, 3, 2920, 100);
      (1, H, 3, 2920, 100) ]

let scoreboard_data (flow : Flow.t) ~now seq loop =
  let payload =
    if seq < flow.nseg then Flow.seg_payload flow seq
    else Packet.max_payload
  in
  let p =
    Packet.make ~seq ~payload ~loop ~flow:flow.id ~src:flow.src
      ~dst:flow.dst Packet.Data
  in
  Wire.set_data p ~tx:now ~first_rtt:false;
  p

(* Held segments, payload per loop and the completion record after one
   arrival: the flow is recorded exactly once, from its completing
   segment on, with the payload its scoreboard credited. *)
let check_scoreboard name ctx (flow : Flow.t) (seq, _, cum, hcp, lcp) =
  let what s = Printf.sprintf "%s, after segment %d: %s" name seq s in
  check Alcotest.int (what "cumulative point") cum flow.cum;
  check Alcotest.int (what "primary-loop payload") hcp flow.hcp_delivered;
  check Alcotest.int (what "low-priority payload") lcp flow.lcp_delivered;
  let records = Ppt_stats.Fct.records ctx.Context.fct in
  if cum < flow.nseg then
    check Alcotest.int (what "not recorded yet") 0 (List.length records)
  else
    match records with
    | [ r ] ->
      check Alcotest.int (what "recorded primary payload") hcp
        r.Ppt_stats.Fct.hcp_delivered;
      check Alcotest.int (what "recorded low-priority payload") lcp
        r.Ppt_stats.Fct.lcp_delivered
    | _ -> Alcotest.fail (what "not recorded exactly once")

(* A window-family receiver, fed each arrival directly. *)
let test_scoreboard_window () =
  let sim, _topo, ctx = Helpers.star () in
  let flow =
    Flow.create ~id:0 ~src:0 ~dst:1 ~size:scoreboard_size ~start:0
  in
  let rcv = Receiver.create ctx flow in
  let done_calls = ref 0 in
  flow.Flow.teardown <- (fun () -> incr done_calls);
  List.iter
    (fun ((seq, loop, _, _, _) as row) ->
       let p = scoreboard_data flow ~now:(Sim.now sim) seq loop in
       Receiver.on_data rcv p;
       Packet.release p;
       check_scoreboard "window" ctx flow row)
    scoreboard_arrivals;
  check Alcotest.int "torn down once" 1 !done_calls;
  Sim.run sim

(* An ExpressPass flow, whose sender is muted (its credits go to a
   sink), fed each arrival through the fabric. Completion tears the
   flow down, so the last duplicate finds no handler. *)
let test_scoreboard_receiver_driven () =
  let sim, _topo, ctx = Helpers.star () in
  let started = ref None in
  let start = Expresspass.make () ctx in
  Helpers.launch ctx (fun flow -> started := Some flow; start flow)
    [ (0, 1, scoreboard_size, 0) ];
  Sim.run ~until:0 sim;
  let flow = Option.get !started in
  Ppt_netsim.Net.register ctx.Context.net ~host:flow.src ~flow:flow.id
    ignore;
  List.iter
    (fun ((seq, loop, _, _, _) as row) ->
       Ppt_netsim.Net.send ctx.Context.net
         (scoreboard_data flow ~now:(Sim.now sim) seq loop);
       Sim.run ~until:(Sim.now sim + Units.us 50) sim;
       check_scoreboard "expresspass" ctx flow row)
    scoreboard_arrivals;
  Sim.run sim;
  Helpers.assert_drained sim

(* Completion is one path for every transport: [Context.flow_finished]
   records the flow and runs its teardown once, also when called again,
   and leaves it no handler, so a late packet for the finished flow, at
   either end, is undeliverable. *)
let check_finished_once name make =
  let sim, _topo, ctx = Helpers.star () in
  let start = make ctx in
  let started = ref None and teardowns = ref 0 in
  Helpers.run_flows ctx
    (fun flow ->
       start flow;
       let teardown = flow.Flow.teardown in
       flow.Flow.teardown <- (fun () -> incr teardowns; teardown ());
       started := Some flow)
    [ (0, 1, 50_000, 0) ];
  let flow = Option.get !started in
  check Alcotest.bool (name ^ ": finished") true (Flow.is_finished flow);
  Context.flow_finished ctx flow;
  check Alcotest.int (name ^ ": teardown ran once") 1 !teardowns;
  check Alcotest.int (name ^ ": recorded once") 1
    (Ppt_stats.Fct.count ctx.Context.fct);
  let net = ctx.Context.net in
  let before = Ppt_netsim.Net.undeliverable net in
  let late_data = scoreboard_data flow ~now:(Sim.now sim) 0 Packet.H in
  let late_ctrl = Receiver_driven.control flow Packet.Pull in
  Wire.set_pull late_ctrl ~cum:0;
  Ppt_netsim.Net.send net late_data;
  Ppt_netsim.Net.send net late_ctrl;
  Sim.run sim;
  check Alcotest.int (name ^ ": late packets undeliverable") (before + 2)
    (Ppt_netsim.Net.undeliverable net);
  check Alcotest.int (name ^ ": still recorded once") 1
    (Ppt_stats.Fct.count ctx.Context.fct);
  Helpers.assert_drained sim

let test_finished_once_window () =
  check_finished_once "dctcp" (Dctcp.make ())

let test_finished_once_receiver_driven () =
  check_finished_once "ndp" (Ndp.make ())

let suite =
  [ Alcotest.test_case "dctcp: single flow" `Quick
      test_single_flow_completes;
    Alcotest.test_case "dctcp: tiny flow" `Quick test_tiny_flow_completes;
    Alcotest.test_case "dctcp: many flows" `Quick test_many_flows_complete;
    Alcotest.test_case "dctcp: fair sharing" `Quick test_two_flow_sharing;
    Alcotest.test_case "dctcp: loss recovery" `Quick test_loss_recovery;
    Alcotest.test_case "dctcp: ecn prevents drops" `Quick
      test_ecn_prevents_drops;
    Alcotest.test_case "dctcp: view state" `Quick test_dctcp_view;
    Alcotest.test_case "dctcp: flow counters" `Quick test_flow_counters;
    Alcotest.test_case "dctcp: determinism" `Quick test_determinism;
    Alcotest.test_case "wire: header round trips" `Quick test_wire_round_trip;
    Alcotest.test_case "wire: header path allocates nothing" `Quick
      test_wire_no_alloc;
    Alcotest.test_case "ppt: flow set-up and teardown allocate little"
      `Quick test_ppt_flow_setup_alloc;
    Alcotest.test_case "dctcp: acks allocate nothing" `Quick
      test_dctcp_ack_no_alloc;
    Alcotest.test_case "receiver: lcp_batch outside 1..2 rejected" `Quick
      test_receiver_lcp_batch_range;
    Alcotest.test_case "tcp: slow start and loss recovery" `Quick
      test_tcp_congestion_control;
    Alcotest.test_case "tcp: loss recovery end to end" `Quick
      test_tcp_loss_recovery_e2e;
    Alcotest.test_case "halfback: small-flow replay" `Quick
      test_halfback_replay_small_flow;
    Alcotest.test_case "halfback: large flow stays plain" `Quick
      test_halfback_large_flow_plain;
    Alcotest.test_case "launch: same run as starts scheduled up front"
      `Quick test_launch_matches_up_front;
    Alcotest.test_case "launch: specs out of start order refused" `Quick
      test_launch_refuses_unsorted;
    Alcotest.test_case "scoreboard: window receiver" `Quick
      test_scoreboard_window;
    Alcotest.test_case "scoreboard: receiver-driven receiver" `Quick
      test_scoreboard_receiver_driven;
    Alcotest.test_case "completion: window flow finishes once" `Quick
      test_finished_once_window;
    Alcotest.test_case "completion: receiver-driven flow finishes once"
      `Quick test_finished_once_receiver_driven ]
