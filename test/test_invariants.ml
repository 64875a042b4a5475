(* Property and failure-injection tests on cross-module invariants:
   reliability under random loss, dual-loop bookkeeping, and the EWD
   receiver clocking. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport

let check = Alcotest.check

(* Random flows over a deliberately lossy fabric (tiny buffer, no ECN
   assistance): every byte must still arrive, whatever the transport. *)
let lossy_qcfg () =
  Prio_queue.default_config ~buffer_bytes:(Units.kb 10)

let prop_reliable_under_loss factory_name factory =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "%s: every flow completes despite heavy drop-tail loss"
         factory_name)
    ~count:25
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 8)
                              (int_range 1 300_000)))
    (fun (seed, sizes) ->
       let sim = Sim.create () in
       let topo =
         Topology.star ~sim ~n_hosts:4 ~rate:(Units.gbps 10)
           ~delay:(Units.us 2) ~qcfg:(lossy_qcfg ()) ()
       in
       let ctx =
         Context.of_topology ~rto_min:(Units.ms 1)
           ~rng:(Rng.create seed) topo
       in
       Helpers.launch ctx (factory ctx)
         (List.mapi (fun i size -> (i mod 3, 3, size, i * 1000)) sizes);
       Sim.run ~until:(Units.sec 30) sim;
       ctx.Context.completed = List.length sizes)

(* The dual-loop scoreboard: after completion, delivered payload per
   flow must equal the flow size exactly (no byte delivered twice into
   the record, none missing). *)
let prop_delivered_equals_size =
  QCheck.Test.make
    ~name:"ppt: delivered payload = flow size under loss" ~count:25
    QCheck.(pair small_int (int_range 1 400_000))
    (fun (seed, size) ->
       let sim = Sim.create () in
       let topo =
         Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
           ~delay:(Units.us 10) ~qcfg:(lossy_qcfg ()) ()
       in
       let ctx =
         Context.of_topology ~rto_min:(Units.ms 1)
           ~rng:(Rng.create seed) topo
       in
       Helpers.launch ctx (Ppt_core.Ppt.make () ctx) [ (0, 2, size, 0) ];
       Sim.run ~until:(Units.sec 30) sim;
       match Ppt_stats.Fct.records ctx.Context.fct with
       | [ r ] ->
         r.Ppt_stats.Fct.hcp_delivered + r.Ppt_stats.Fct.lcp_delivered
         = size
       | _ -> false)

(* EWD receiver clocking: exactly one low-priority ACK per two
   opportunistic data packets (§3.2). *)
let test_ewd_ack_ratio () =
  let sim = Sim.create () in
  let qcfg = Prio_queue.default_config ~buffer_bytes:(Units.mb 1) in
  let topo =
    Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
      ~delay:(Units.us 2) ~qcfg ()
  in
  let ctx =
    Context.of_topology ~rto_min:(Units.ms 1) ~rng:(Rng.create 1) topo
  in
  let flow = Flow.create ~id:0 ~src:0 ~dst:2 ~size:150_000 ~start:0 in
  let rcv = Receiver.create ~lcp_batch:2 ctx flow in
  let lcp_acks = ref 0 in
  Net.register ctx.Context.net ~host:0 ~flow:0 (fun p ->
      if p.Packet.kind = Packet.Ack && p.Packet.loop = Packet.L then
        incr lcp_acks);
  Net.register ctx.Context.net ~host:2 ~flow:0 (fun p ->
      Receiver.on_data rcv p);
  (* hand-deliver 10 opportunistic packets *)
  for seq = 0 to 9 do
    let pay = Flow.seg_payload flow seq in
    let pkt =
      Packet.make ~seq ~payload:pay ~prio:4 ~loop:Packet.L
        ~flow:0 ~src:0 ~dst:2 Packet.Data
    in
    Net.send ctx.Context.net pkt
  done;
  Sim.run sim;
  check Alcotest.int "10 LCP data -> 5 LCP acks" 5 !lcp_acks

(* The ECE echo: a marked opportunistic packet must surface as an
   ECE-flagged low-priority ACK. *)
let test_lcp_ece_echo () =
  let sim = Sim.create () in
  let qcfg =
    { (Prio_queue.default_config ~buffer_bytes:(Units.mb 1)) with
      Prio_queue.mark_thresholds =
        Prio_queue.mark_bands ~hp:None ~lp:(Some 0) }
  in
  let topo =
    Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
      ~delay:(Units.us 2) ~qcfg ()
  in
  let ctx =
    Context.of_topology ~rto_min:(Units.ms 1) ~rng:(Rng.create 1) topo
  in
  let flow = Flow.create ~id:0 ~src:0 ~dst:2 ~size:10_000 ~start:0 in
  let rcv = Receiver.create ~lcp_batch:2 ctx flow in
  let saw_ece = ref false in
  Net.register ctx.Context.net ~host:0 ~flow:0 (fun p ->
      if p.Packet.kind = Packet.Ack && Wire.ack_ece p then saw_ece := true);
  Net.register ctx.Context.net ~host:2 ~flow:0 (fun p ->
      Receiver.on_data rcv p);
  for seq = 0 to 3 do
    let pay = Flow.seg_payload flow seq in
    let pkt =
      Packet.make ~seq ~payload:pay ~prio:4 ~loop:Packet.L
        ~ecn_capable:true ~flow:0 ~src:0 ~dst:2 Packet.Data
    in
    Net.send ctx.Context.net pkt
  done;
  Sim.run sim;
  check Alcotest.bool "marked LCP data echoed as ECE ack" true !saw_ece

(* l_inflight accounting survives arbitrary interleavings of LCP
   sends, HCP takeover and SACK delivery. *)
let prop_l_inflight_never_negative =
  QCheck.Test.make ~name:"reliable: l_inflight counter stays sane"
    ~count:50
    QCheck.(pair small_int (int_range 10_000 500_000))
    (fun (seed, size) ->
       let sim = Sim.create () in
       let topo =
         Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
           ~delay:(Units.us 10) ~qcfg:(lossy_qcfg ()) ()
       in
       let ctx =
         Context.of_topology ~rto_min:(Units.ms 1)
           ~rng:(Rng.create seed) topo
       in
       Helpers.launch ctx (Ppt_core.Ppt.make () ctx) [ (0, 2, size, 0) ];
       Sim.run ~until:(Units.sec 30) sim;
       (* the run terminating cleanly is the observable: the internal
          max 0 clamps would otherwise wedge retransmission logic *)
       ctx.Context.completed = 1)

let suite =
  [ QCheck_alcotest.to_alcotest
      (prop_reliable_under_loss "dctcp" (Dctcp.make ()));
    QCheck_alcotest.to_alcotest
      (prop_reliable_under_loss "ppt" (Ppt_core.Ppt.make ()));
    QCheck_alcotest.to_alcotest
      (prop_reliable_under_loss "tcp" (Tcp.make ()));
    QCheck_alcotest.to_alcotest
      (prop_reliable_under_loss "ndp" (Ndp.make ()));
    QCheck_alcotest.to_alcotest
      (prop_reliable_under_loss "aeolus" (Homa.make_aeolus ()));
    QCheck_alcotest.to_alcotest
      (prop_reliable_under_loss "expresspass" (Expresspass.make ()));
    QCheck_alcotest.to_alcotest prop_delivered_equals_size;
    Alcotest.test_case "ewd: 2-to-1 ack clocking" `Quick
      test_ewd_ack_ratio;
    Alcotest.test_case "lcp: ECE echo" `Quick test_lcp_ece_echo;
    QCheck_alcotest.to_alcotest prop_l_inflight_never_negative ]
