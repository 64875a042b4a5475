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
  let transport =
    { Endpoint.t_name = "dctcp-probe";
      t_start = (fun flow ->
          let params = Reliable.default_params () in
          Endpoint.launch_window_flow ctx ~params
            ~setup:(fun snd ->
                let view = Dctcp.attach snd in
                fun () -> seen_alpha := view.Dctcp.alpha ())
            flow) }
  in
  Helpers.run_flows ctx transport [ (0, 1, 3_000_000, 0) ];
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
   releasing both leaves [Gc.minor_words] where it was, with records
   recycled (with pooling off, every [make] is a fresh record by
   design). [make] gets no optional arguments here, so the guard also
   holds in the dev profile, where [-opaque] boxes them at every call. *)
let test_wire_no_alloc () =
  let was = Packet.pooling () in
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling was) @@ fun () ->
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

(* --- tcp.ml: slow start / loss recovery state machine --- *)

let ack_info ?(newly = 0) () =
  { Reliable.ai_cum = 0; ai_ece = false; ai_data_tx = 0;
    ai_tel = -1; ai_newly_acked = newly;
    ai_cum_advanced = true }

let test_tcp_congestion_control () =
  let _sim, _topo, ctx = Helpers.star () in
  let flow = Flow.create ~id:0 ~src:0 ~dst:1 ~size:1_000_000 ~start:0 in
  let mss = Ppt_netsim.Packet.max_payload in
  let fmss = float_of_int mss in
  let params =
    Reliable.default_params ~initial_cwnd:(3 * mss) ~ecn_capable:false ()
  in
  let s = Reliable.create ctx flow params in
  Tcp.attach s;
  let eps = Alcotest.float 0.01 in
  (* slow start: every newly acked byte grows cwnd by one byte *)
  s.Reliable.hook_on_ack s (ack_info ~newly:mss ());
  check eps "slow start grows one seg per acked seg" (4. *. fmss)
    (Reliable.cwnd s);
  (* fast-retransmit loss: window halves *)
  Reliable.set_cwnd s (20. *. fmss);
  s.Reliable.hook_on_loss s;
  check eps "loss halves the window" (10. *. fmss) (Reliable.cwnd s);
  (* now above ssthresh: congestion avoidance, additive growth *)
  let before = Reliable.cwnd s in
  s.Reliable.hook_on_ack s (ack_info ~newly:mss ());
  let growth = Reliable.cwnd s -. before in
  check Alcotest.bool
    (Printf.sprintf "additive growth (%.1fB) well below a segment"
       growth)
    true
    (growth > 0. && growth < fmss /. 2.);
  (* halving is floored at two segments *)
  Reliable.set_cwnd s (2. *. fmss);
  s.Reliable.hook_on_loss s;
  check eps "ssthresh floored at 2 mss" (2. *. fmss) (Reliable.cwnd s);
  (* timeout: back to one segment, then slow start resumes *)
  Reliable.set_cwnd s (20. *. fmss);
  s.Reliable.hook_on_timeout s;
  check eps "timeout resets to 1 mss" fmss (Reliable.cwnd s);
  s.Reliable.hook_on_ack s (ack_info ~newly:mss ());
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
    Alcotest.test_case "receiver: lcp_batch outside 1..2 rejected" `Quick
      test_receiver_lcp_batch_range;
    Alcotest.test_case "tcp: slow start and loss recovery" `Quick
      test_tcp_congestion_control;
    Alcotest.test_case "tcp: loss recovery end to end" `Quick
      test_tcp_loss_recovery_e2e;
    Alcotest.test_case "halfback: small-flow replay" `Quick
      test_halfback_replay_small_flow;
    Alcotest.test_case "halfback: large flow stays plain" `Quick
      test_halfback_large_flow_plain ]
