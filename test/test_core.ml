(* Tests for the PPT core: tagging, identification, the LCP loop and
   the assembled transport. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport
open Ppt_core

let check = Alcotest.check

(* --- mirror-symmetric tagging (§4.2) ------------------------------- *)

let test_tagging_identified () =
  let prio = Tagging.prio ~identified_large:true in
  check Alcotest.int "HCP lowest of band" 3
    (prio ~loop:Packet.H ~bytes_sent:0);
  check Alcotest.int "LCP lowest of band" 7
    (prio ~loop:Packet.L ~bytes_sent:0);
  check Alcotest.int "stays at P3 regardless of bytes" 3
    (prio ~loop:Packet.H ~bytes_sent:50_000_000)

let test_tagging_demotion () =
  (* §4.2's ladder: one level down at 100KB, 1MB and 10MB sent *)
  let prio = Tagging.prio ~identified_large:false in
  let h b = prio ~loop:Packet.H ~bytes_sent:b in
  let l b = prio ~loop:Packet.L ~bytes_sent:b in
  let sent =
    [ 0; 99_999; 100_000; 999_999; 1_000_000; 9_999_999; 10_000_000;
      99_999_999 ]
  in
  check (Alcotest.list Alcotest.int) "hcp demotes 0->3"
    [ 0; 0; 1; 1; 2; 2; 3; 3 ] (List.map h sent);
  check (Alcotest.list Alcotest.int) "lcp mirrors at +4"
    [ 4; 4; 5; 5; 6; 6; 7; 7 ] (List.map l sent)

let test_tagging_mirror_property =
  QCheck.Test.make ~name:"tagging: LCP = HCP + 4 at every byte count"
    ~count:300
    QCheck.(pair bool (int_bound 50_000_000))
    (fun (identified_large, bytes_sent) ->
       Tagging.prio ~identified_large ~loop:Packet.L ~bytes_sent
       = Tagging.prio ~identified_large ~loop:Packet.H ~bytes_sent + 4)

(* --- buffer-aware identification (§4.1) ----------------------------- *)

let test_ident_accuracy () =
  (* the syscall model must reproduce the paper's ~86.7% accuracy on
     flows above the 100KB threshold and never misidentify flows at or
     below it *)
  let rng = Rng.create 3 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Sendbuf.identify Sendbuf.default rng ~flow_size:500_000 then
      incr hits
  done;
  let acc = float_of_int !hits /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "accuracy %.3f ~ 0.867" acc) true
    (abs_float (acc -. 0.867) < 0.02);
  List.iter
    (fun flow_size ->
       for _ = 1 to 1_000 do
         if Sendbuf.identify Sendbuf.default rng ~flow_size then
           Alcotest.fail
             (Printf.sprintf "%dB flow identified as large" flow_size)
       done)
    [ 500; 100_000 ]

let test_ident_buffer_cap () =
  (* a send buffer below the 100KB threshold caps every first syscall
     under it, whether the application writes whole messages or
     streams *)
  let model = Sendbuf.make ~capacity:80_000 () in
  let rng = Rng.create 4 in
  for _ = 1 to 1_000 do
    if Sendbuf.identify model rng ~flow_size:1_000_000 then
      Alcotest.fail "capacity-capped write identified as large"
  done

let test_sendbuf_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Sendbuf.make: capacity must be positive")
    (fun () -> ignore (Sendbuf.make ~capacity:0 ()))

(* --- the assembled PPT transport ------------------------------------ *)

(* With a long RTT the startup phase dominates: PPT's case-1 LCP loop
   must beat plain DCTCP clearly (§2.3 "spare bandwidth in the first
   few RTTs"). *)
let startup_fct transport_of =
  (* RTT = 2*(2*(20us+1.2us)) ~ 85us; BDP at 10G ~ 106KB *)
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let transport = transport_of ctx in
  Helpers.run_flows ctx transport [ (0, 1, 500_000, 0) ];
  Option.get (Helpers.fct_of ctx 0)

let test_ppt_beats_dctcp_startup () =
  let dctcp = startup_fct (Dctcp.make ()) in
  let ppt = startup_fct (Ppt.make ()) in
  check Alcotest.bool
    (Printf.sprintf "ppt=%dns < dctcp=%dns" ppt dctcp)
    true (ppt < dctcp)

let test_ppt_uses_lcp () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  Helpers.run_flows ctx (Ppt.make () ctx) [ (0, 1, 500_000, 0) ];
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  check Alcotest.bool "lcp carried bytes" true
    (r.Ppt_stats.Fct.lcp_payload > 0);
  check Alcotest.bool "hcp carried bytes" true
    (r.Ppt_stats.Fct.hcp_payload > 0)

let test_ppt_many_flows_complete () =
  let _sim, _topo, ctx = Helpers.star ~n:8 () in
  let specs =
    List.init 60 (fun i ->
        (i mod 7, 7, 2_000 + ((i * 7919) mod 400_000), i * 20_000))
  in
  Helpers.run_flows ctx (Ppt.make () ctx) specs;
  check Alcotest.int "all complete" 60 (Ppt_stats.Fct.count ctx.Context.fct)

let test_ppt_variants_complete () =
  let open Ppt_harness in
  List.iter
    (fun (scheme : Schemes.t) ->
       let _sim, _topo, ctx = Helpers.star ~n:5 () in
       let specs = List.init 12 (fun i -> (i mod 4, 4, 150_000, i * 40_000)) in
       Helpers.run_flows ctx (scheme.s_factory ctx) specs;
       check Alcotest.int (scheme.s_name ^ ": all complete") 12
         (Ppt_stats.Fct.count ctx.Context.fct))
    Schemes.[ ppt_no_lcp_ecn; ppt_no_ewd; ppt_no_sched; ppt_no_ident;
              ppt_sendbuf (Units.kb 128) ]

(* LCP must not harm HCP: with heavy congestion, PPT's small flows may
   not be slower than DCTCP's by any large factor. *)
let test_ppt_no_hcp_harm () =
  let run factory =
    let _sim, _topo, ctx = Helpers.star ~n:8 () in
    let specs =
      (* 6 senders of large flows + frequent small flows to one sink *)
      List.concat
        [ List.init 6 (fun i -> (i, 7, 3_000_000, 0));
          List.init 20 (fun i -> (i mod 6, 7, 5_000, 100_000 + (i * 80_000))) ]
    in
    Helpers.run_flows ctx (factory ctx) specs;
    Ppt_stats.Fct.summarize ctx.Context.fct
  in
  let d = run (Dctcp.make ()) in
  let p = run (Ppt.make ()) in
  check Alcotest.bool
    (Printf.sprintf "small flows: ppt=%.3fms dctcp=%.3fms"
       p.Ppt_stats.Fct.small_avg d.Ppt_stats.Fct.small_avg)
    true
    (p.Ppt_stats.Fct.small_avg < 2. *. d.Ppt_stats.Fct.small_avg)

(* The LCP loop unit behaviour: a loop opens for a fresh flow and the
   dual-loop split sends tail segments from the end of the buffer. *)
let test_lcp_case1_window () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let flow = Flow.create ~id:0 ~src:0 ~dst:1 ~size:400_000 ~start:0 in
  let snd =
    Reliable.create ctx flow (Reliable.default_params ())
      (Lcp.policy Dctcp.policy) (Lcp.create ~ewd:true)
  in
  check Alcotest.bool "case-1 window is BDP - IW" true
    (Lcp.case1_window snd = ctx.Context.bdp
                            - int_of_float (Reliable.cwnd snd))

let test_lcp_opens_and_closes () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let lcp_policy = Lcp.policy Dctcp.policy in
  let probe ctx flow =
    Endpoint.window ~params:(Reliable.default_params ()) ~lcp_batch:2
      { lcp_policy with
        Reliable.release = (fun snd ->
            check Alcotest.bool "at least one loop opened" true
              (Lcp.loops_opened snd.Reliable.ext >= 1);
            lcp_policy.Reliable.release snd) }
      (Lcp.create ~ewd:true) ctx flow
  in
  Helpers.run_flows ctx (probe ctx) [ (0, 1, 600_000, 0) ]

(* Identified-large flows must not open their case-1 loop before the
   2nd RTT (§3.1): small flows own the first RTT. *)
let test_lcp_delayed_for_large () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let sim = ctx.Context.sim in
  let flow = Flow.create ~id:0 ~src:0 ~dst:1 ~size:2_000_000 ~start:0 in
  flow.Flow.identified_large <- true;
  let lcp = Lcp.create ~ewd:true in
  let snd =
    Reliable.create ctx flow (Reliable.default_params ())
      (Lcp.policy Dctcp.policy) lcp
  in
  let opened_at_half_rtt = ref None in
  ignore (Sim.schedule sim ~after:(ctx.Context.base_rtt / 2) (fun () ->
      opened_at_half_rtt := Some (Lcp.is_open lcp)));
  Sim.run ~until:(2 * ctx.Context.base_rtt) sim;
  check Alcotest.bool "closed during the 1st RTT" false
    (Option.get !opened_at_half_rtt);
  Reliable.shutdown snd

(* Wire-level check of the mirror-symmetric tagging: a flow identified
   as large must emit HCP data at P3 and LCP data at P7. *)
let test_wire_priorities () =
  let _sim, _topo, ctx = Helpers.star ~delay:(Units.us 20) () in
  let flow = Flow.create ~id:9 ~src:0 ~dst:1 ~size:900_000 ~start:0 in
  flow.Flow.identified_large <- true;
  let tagger ~large:_ ~bytes_sent ~loop =
    Tagging.prio ~identified_large:true ~loop ~bytes_sent
  in
  let snd =
    Reliable.create ctx flow (Reliable.default_params ~tagger ())
      (Lcp.policy Dctcp.policy) (Lcp.create ~ewd:true)
  in
  let rcv = Receiver.create ~lcp_batch:2 ctx flow in
  let seen_h = ref [] and seen_l = ref [] in
  Ppt_netsim.Net.register ctx.Context.net ~host:1 ~flow:9 (fun p ->
      (match p.Ppt_netsim.Packet.kind, p.Ppt_netsim.Packet.loop with
       | Ppt_netsim.Packet.Data, Ppt_netsim.Packet.H ->
         seen_h := p.Ppt_netsim.Packet.prio :: !seen_h
       | Ppt_netsim.Packet.Data, Ppt_netsim.Packet.L ->
         seen_l := p.Ppt_netsim.Packet.prio :: !seen_l
       | _ -> ());
      Receiver.on_data rcv p);
  Ppt_netsim.Net.register ctx.Context.net ~host:0 ~flow:9 (fun p ->
      if p.Ppt_netsim.Packet.kind = Ppt_netsim.Packet.Ack then
        Reliable.on_ack snd p);
  flow.Flow.teardown <- (fun () -> Reliable.shutdown snd);
  Reliable.start snd;
  Sim.run ~until:(Units.sec 5) ctx.Context.sim;
  check Alcotest.bool "identified flow HCP data all P3" true
    (!seen_h <> [] && List.for_all (fun p -> p = 3) !seen_h);
  check Alcotest.bool "identified flow LCP data all P7" true
    (!seen_l <> [] && List.for_all (fun p -> p = 7) !seen_l)

let test_pace_interval_rounds () =
  (* the testbed numbers: 80us RTT, one 1460B segment of a 300-segment
     window -> 80_000 * 1460 / 438_000 = 266.67 ticks. Truncation gave
     266, pacing the whole window systematically early. *)
  check Alcotest.int "rounds up past the half" 267
    (Reliable.pace_interval ~rtt:80_000 ~sent:1460 ~window:438_000);
  (* 116_800_000 / 439_000 = 266.06: below the half, stays 266 *)
  check Alcotest.int "rounds down below the half" 266
    (Reliable.pace_interval ~rtt:80_000 ~sent:1460 ~window:439_000);
  check Alcotest.int "never below one tick" 1
    (Reliable.pace_interval ~rtt:10 ~sent:1 ~window:1_000);
  (* exact division is untouched by rounding *)
  check Alcotest.int "exact division unchanged" 400
    (Reliable.pace_interval ~rtt:80_000 ~sent:1460 ~window:292_000)

let suite =
  [ Alcotest.test_case "tagging: identified large" `Quick
      test_tagging_identified;
    Alcotest.test_case "tagging: demotion ladder" `Quick
      test_tagging_demotion;
    QCheck_alcotest.to_alcotest test_tagging_mirror_property;
    Alcotest.test_case "ident: accuracy ~86.7%" `Quick test_ident_accuracy;
    Alcotest.test_case "ident: buffer cap" `Quick test_ident_buffer_cap;
    Alcotest.test_case "sendbuf: validation" `Quick test_sendbuf_validation;
    Alcotest.test_case "ppt: beats dctcp in startup" `Quick
      test_ppt_beats_dctcp_startup;
    Alcotest.test_case "ppt: lcp carries bytes" `Quick test_ppt_uses_lcp;
    Alcotest.test_case "ppt: many flows" `Quick test_ppt_many_flows_complete;
    Alcotest.test_case "ppt: ablation variants run" `Quick
      test_ppt_variants_complete;
    Alcotest.test_case "ppt: no harm to small flows" `Quick
      test_ppt_no_hcp_harm;
    Alcotest.test_case "lcp: case-1 window" `Quick test_lcp_case1_window;
    Alcotest.test_case "lcp: opens during flow" `Quick
      test_lcp_opens_and_closes;
    Alcotest.test_case "lcp: delayed to 2nd RTT for large" `Quick
      test_lcp_delayed_for_large;
    Alcotest.test_case "lcp: pacer interval rounds" `Quick
      test_pace_interval_rounds;
    Alcotest.test_case "tagging: wire priorities" `Quick
      test_wire_priorities ]
