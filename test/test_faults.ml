(* Tests for lib/faults: spec parsing/printing roundtrips, injector
   semantics on a live fabric, RTO backoff under a blackout, chaos
   QCheck properties (liveness + fault-drop conservation across five
   transports), and seed-matrix determinism guarding that the fault
   layer never perturbs unfaulted runs. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport
open Ppt_obs
module F = Ppt_faults.Fault_spec
module Injector = Ppt_faults.Injector

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected parse error: " ^ e)

(* --- fixtures (mirrors test_obs) ----------------------------------- *)

let star ?(n = 4) ?(delay = Units.us 2) ?(seed = 42) ?qcfg () =
  let sim = Sim.create () in
  let qcfg =
    match qcfg with Some q -> q | None -> Helpers.default_qcfg ()
  in
  let topo =
    Topology.star ~sim ~n_hosts:n ~rate:(Units.gbps 10) ~delay ~qcfg ()
  in
  let ctx =
    Context.of_topology ~rto_min:(Units.ms 1) ~rng:(Rng.create seed)
      topo
  in
  (sim, topo, ctx)

let install topo ~seed spec =
  Injector.install ~net:topo.Topology.net ~hosts:topo.Topology.hosts
    ~to_host_port:topo.Topology.to_host_port ~seed spec

let captured ?(capacity = 1 lsl 19) f =
  let ring = Trace.Ring.create ~capacity () in
  let r = Trace.with_sink (Trace.Ring.sink ring) f in
  check Alcotest.int "ring kept every event" 0 (Trace.Ring.dropped ring);
  (r, Trace.Ring.to_list ring)

(* --- spec parsing and printing ------------------------------------- *)

let test_parse_basic () =
  let spec = ok (F.of_string "down@2ms-5ms:link:3") in
  check Alcotest.bool "one clause" true
    (spec
     = [ { F.kind = F.Down; from_t = Units.ms 2; until_t = Units.ms 5;
           sel = F.Link 3 } ]);
  let multi =
    ok (F.of_string
          " ber=1e-5@0ms-50ms:core ;rate=0.5@100us-2ms:node:4:1; \
           delay+=150us@1ms-3ms:all; loss=0.25@0us-800us:tohost:2")
  in
  check Alcotest.int "four clauses" 4 (List.length multi);
  check Alcotest.bool "ber clause" true
    (List.nth multi 0
     = { F.kind = F.Ber 1e-5; from_t = 0; until_t = Units.ms 50;
         sel = F.Core });
  check Alcotest.bool "rate clause" true
    (List.nth multi 1
     = { F.kind = F.Rate 0.5; from_t = Units.us 100;
         until_t = Units.ms 2; sel = F.Port { node = 4; port = 1 } });
  check Alcotest.bool "delay clause" true
    (List.nth multi 2
     = { F.kind = F.Extra_delay (Units.us 150); from_t = Units.ms 1;
         until_t = Units.ms 3; sel = F.All });
  check Alcotest.bool "loss clause" true
    (List.nth multi 3
     = { F.kind = F.Loss 0.25; from_t = 0; until_t = Units.us 800;
         sel = F.To_host 2 });
  (* 'pause' is an alias for 'down' *)
  check Alcotest.bool "pause alias" true
    (ok (F.of_string "pause@1ms-2ms:host:0")
     = ok (F.of_string "down@1ms-2ms:host:0"));
  (* empty specs are pristine, not errors *)
  check Alcotest.bool "empty string" true (F.of_string "" = Ok []);
  check Alcotest.bool "only separators" true
    (F.of_string " ; ; " = Ok [])

let test_parse_rejects () =
  List.iter
    (fun s ->
       match F.of_string s with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ "down@5ms-2ms:link:0";        (* empty window *)
      "down@2ms-2ms:link:0";        (* empty window *)
      "loss=1.5@0ms-1ms:all";       (* loss outside [0,1] *)
      "ber=0.5@0ms-1ms:all";        (* ber outside [0,1e-2] *)
      "rate=0@0ms-1ms:all";         (* rate outside (0,1] *)
      "rate=1.2@0ms-1ms:all";
      "delay+=5@0ms-1ms:all";       (* time without unit *)
      "down@1ms:all";               (* no FROM-UNTIL window *)
      "down@1ms-2ms";               (* no selector *)
      "frob@0ms-1ms:all";           (* unknown kind *)
      "down@1ms-2ms:rack:3";        (* unknown selector *)
      "down@1ms-2ms:host:-1" ]

let test_print_canonical () =
  check Alcotest.string "canonical form survives"
    "down@2ms-5ms:link:3"
    (F.to_string (ok (F.of_string "down@2ms-5ms:link:3")));
  check Alcotest.string "times reduce to the largest exact unit"
    "delay+=1500us@1us-1s:all"
    (F.to_string
       (ok (F.of_string "delay+=1500000ns@1000ns-1000ms:all")))

let gen_clause =
  let open QCheck.Gen in
  let time =
    oneof
      [ int_range 0 9_999;
        map (fun n -> Units.us n) (int_range 0 9_999);
        map (fun n -> Units.ms n) (int_range 0 5_000) ]
  in
  let sel =
    oneof
      [ map (fun h -> F.Host h) (int_range 0 64);
        map (fun h -> F.To_host h) (int_range 0 64);
        map (fun h -> F.Link h) (int_range 0 64);
        (int_range 0 64 >>= fun node -> int_range 0 8 >>= fun port ->
         return (F.Port { node; port }));
        oneofl [ F.Core; F.Edge; F.All ] ]
  in
  let kind =
    oneof
      [ return F.Down;
        map (fun n -> F.Loss (float_of_int n /. 1_000_000.))
          (int_range 0 1_000_000);
        map (fun n -> F.Ber (float_of_int n *. 1e-9))
          (int_range 0 10_000);
        map (fun n -> F.Rate (float_of_int n /. 1_000.))
          (int_range 1 1_000);
        map (fun n -> F.Extra_delay n) (int_range 0 1_000_000) ]
  in
  kind >>= fun kind -> time >>= fun from_t ->
  time >>= fun dur -> sel >>= fun sel ->
  return { F.kind; from_t; until_t = from_t + dur + 1; sel }

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"fault spec: to_string/of_string roundtrip"
    ~count:300
    (QCheck.make ~print:F.to_string
       QCheck.Gen.(list_size (int_range 1 4) gen_clause))
    (fun spec -> F.of_string (F.to_string spec) = Ok spec)

(* Each of these parsed before: NaN fails every range comparison, so
   it slipped through validation, and a time past [max_int]
   nanoseconds wrapped round to an arbitrary window. *)
let test_parse_rejects_nan_and_overflow () =
  List.iter
    (fun s ->
       match F.of_string s with
       | Error _ -> ()
       | Ok spec ->
         Alcotest.fail
           (Printf.sprintf "%S parsed as %S" s (F.to_string spec)))
    [ "loss=nan@1ms-2ms:link:1";
      "rate=nan@1ms-2ms:link:1";
      "ber=nan@1ms-2ms:link:1";
      "down@9999999999999999999ms-1s:link:1";
      "down@0ms-9223372036854775807ns:all";
      "delay+=1e300s@0ms-1ms:all" ]

(* Truncated, bit-flipped and random specs, and clauses spliced from
   grammar tokens and odd numbers: parsing returns [Ok] or [Error] and
   never raises, and whatever it accepts prints back to a string that
   parses to the same spec. *)
let prop_spec_garbage =
  let gen =
    let open QCheck.Gen in
    let valid =
      map F.to_string (list_size (int_range 1 3) gen_clause)
    in
    let alphabet =
      "downpauselossberratedelay+=@-:;. 0123456789eEnsumhostlinkcoreall"
    in
    let number =
      oneofl
        [ "0"; "1"; "0.5"; "1e-5"; "-1"; "nan"; "inf"; "-0"; "0x1p-3";
          "9999999999999999999"; "4611686018427387904"; "" ]
    in
    let time =
      number >>= fun n -> oneofl [ "ns"; "us"; "ms"; "s"; "" ] >>= fun u ->
      return (n ^ u)
    in
    let spliced =
      oneofl [ "down"; "pause"; "loss="; "ber="; "rate="; "delay+=" ]
      >>= fun kind -> oneof [ number; time ] >>= fun arg ->
      oneof [ oneofl [ "0ms"; "1us"; "2ms" ]; time ] >>= fun from_t ->
      oneof [ oneofl [ "3ms"; "1s" ]; time ] >>= fun until_t ->
      oneofl [ "host:"; "tohost:"; "link:"; "node:1:"; "core"; "all" ]
      >>= fun sel -> number >>= fun n ->
      return
        (Printf.sprintf "%s%s@%s-%s:%s%s" kind
           (if kind = "down" || kind = "pause" then "" else arg)
           from_t until_t sel n)
    in
    frequency
      [ (4, spliced);
        (1, valid >>= fun s ->
         int_range 0 (String.length s) >>= fun n ->
         return (String.sub s 0 n));
        (1, valid >>= fun s ->
         int_range 0 (String.length s - 1) >>= fun i ->
         int_range 0 7 >>= fun bit ->
         let b = Bytes.of_string s in
         Bytes.set b i
           (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
         return (Bytes.to_string b));
        (1, string_size ~gen:(oneofl (List.of_seq (String.to_seq alphabet)))
          (int_range 0 40)) ]
  in
  QCheck.Test.make ~name:"fault spec: garbage never raises" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
       match F.of_string s with
       | Ok spec -> F.of_string (F.to_string spec) = Ok spec
       | Error _ -> true)

let test_scenarios_parse () =
  List.iter
    (fun core ->
       List.iter
         (fun (name, s) ->
            match F.of_string s with
            | Ok (_ :: _) -> ()
            | Ok [] -> Alcotest.fail (name ^ ": empty scenario")
            | Error e -> Alcotest.fail (name ^ ": " ^ e))
         (F.scenarios ~receiver:1 ~spike:(Units.us 180) ~core))
    [ false; true ]

(* --- injector semantics on a live fabric ---------------------------- *)

(* A link flap mid-transfer: both ports of host 1's link report down at
   exactly 2ms and up at exactly 5ms, traffic into the downed egress
   surfaces as reason-'D' fault drops, and the flow still completes —
   necessarily after the window closes. *)
let test_flap_mid_transfer () =
  let sim, topo, ctx = star () in
  install topo ~seed:1 (ok (F.of_string "down@2ms-5ms:link:1"));
  let t = Dctcp.make () ctx in
  (* ~4ms of line-rate transfer, so the flow is mid-flight when the
     2ms-5ms window opens *)
  let (), events =
    captured (fun () ->
        Helpers.launch ctx t [ (0, 1, 5_000_000, 0) ];
        Sim.run ~until:(Units.sec 30) sim)
  in
  Helpers.assert_drained sim;
  check Alcotest.int "flow completed" 1 ctx.Context.completed;
  let downs =
    List.filter_map
      (function ts, Event.Link_down _ -> Some ts | _ -> None)
      events
  and ups =
    List.filter_map
      (function ts, Event.Link_up _ -> Some ts | _ -> None)
      events
  in
  check (Alcotest.list Alcotest.int) "both link ports down at 2ms"
    [ Units.ms 2; Units.ms 2 ] downs;
  check (Alcotest.list Alcotest.int) "both link ports up at 5ms"
    [ Units.ms 5; Units.ms 5 ] ups;
  let discards =
    List.length
      (List.filter
         (function
           | _, Event.Fault_drop { reason = 'D'; _ } -> true
           | _ -> false)
         events)
  in
  check Alcotest.bool "downed egress discarded traffic" true
    (discards > 0);
  check Alcotest.int "ground-truth counter matches trace" discards
    (Net.total_fault_drops ctx.Context.net);
  let fct = Option.get (Helpers.fct_of ctx 0) in
  check Alcotest.bool "completion pushed past the window" true
    (fct > Units.ms 5)

(* A window that opens only after the flow has finished must leave the
   run untouched: the faulted trace minus its link transitions equals
   the pristine trace event for event. *)
let test_window_after_flow_is_noop () =
  let run faulted =
    let sim, topo, ctx = star () in
    if faulted then
      install topo ~seed:1 (ok (F.of_string "down@10ms-11ms:link:1"));
    let t = Dctcp.make () ctx in
    let (), events =
      captured (fun () ->
          Helpers.launch ctx t [ (0, 1, 50_000, 0) ];
          Sim.run ~until:(Units.sec 30) sim)
    in
    Helpers.assert_drained sim;
    check Alcotest.int "flow completed" 1 ctx.Context.completed;
    events
  in
  let plain = run false in
  let faulted =
    List.filter
      (function
        | _, (Event.Link_down _ | Event.Link_up _) -> false
        | _ -> true)
      (run true)
  in
  check Alcotest.bool "identical up to link transitions" true
    (plain = faulted)

let fct_under spec =
  let sim, topo, ctx = star () in
  (match spec with
   | Some s -> install topo ~seed:1 (ok (F.of_string s))
   | None -> ());
  Helpers.launch ctx (Dctcp.make () ctx) [ (0, 1, 500_000, 0) ];
  Sim.run ~until:(Units.sec 30) sim;
  Helpers.assert_drained sim;
  Option.get (Helpers.fct_of ctx 0)

let test_degrade_slows () =
  let plain = fct_under None in
  let degraded = fct_under (Some "rate=0.1@0us-1s:link:1") in
  check Alcotest.bool
    (Printf.sprintf "10%%-rate link: %dns > 2x %dns" degraded plain)
    true
    (degraded > 2 * plain)

let test_delay_spike_slows () =
  let plain = fct_under None in
  let spiked = fct_under (Some "delay+=500us@0us-1s:link:1") in
  check Alcotest.bool
    (Printf.sprintf "delay spike: %dns > %dns + 500us" spiked plain)
    true
    (spiked > plain + Units.us 500)

(* Random loss and corruption surface with their own reasons, and the
   flow still completes once the window closes. *)
let reasons_under spec =
  let sim, topo, ctx = star () in
  install topo ~seed:7 (ok (F.of_string spec));
  let t = Dctcp.make () ctx in
  let (), events =
    captured (fun () ->
        Helpers.launch ctx t [ (0, 1, 2_000_000, 0) ];
        Sim.run ~until:(Units.sec 30) sim)
  in
  Helpers.assert_drained sim;
  check Alcotest.int "flow completed" 1 ctx.Context.completed;
  List.filter_map
    (function _, Event.Fault_drop { reason; _ } -> Some reason
            | _ -> None)
    events

let test_loss_reason () =
  let rs = reasons_under "loss=1@1ms-2ms:tohost:1" in
  check Alcotest.bool "loss kills surfaced as 'L'" true
    (rs <> [] && List.for_all (fun r -> r = 'L') rs)

let test_ber_reason () =
  let rs = reasons_under "ber=1e-4@0ms-2ms:tohost:1" in
  check Alcotest.bool "corruption kills surfaced as 'C'" true
    (rs <> [] && List.for_all (fun r -> r = 'C') rs)

(* Same seed, same spec => identical traces, including every random
   loss draw. *)
let test_injector_deterministic () =
  let run () =
    let sim, topo, ctx = star () in
    install topo ~seed:9
      (ok (F.of_string "loss=0.3@0ms-3ms:link:1; ber=1e-5@0ms-3ms:all"));
    let t = Ppt_core.Ppt.make () ctx in
    let (), events =
      captured (fun () ->
          Helpers.launch ctx t
            [ (0, 1, 800_000, 0); (2, 1, 200_000, 50_000) ];
          Sim.run ~until:(Units.sec 30) sim)
    in
    Helpers.assert_drained sim;
    check Alcotest.int "flows completed" 2 ctx.Context.completed;
    events
  in
  let a = run () and b = run () in
  check Alcotest.bool "loss draws present" true
    (List.exists
       (function _, Event.Fault_drop _ -> true | _ -> false)
       a);
  check Alcotest.bool "identical event-for-event" true (a = b)

let test_install_rejects () =
  let _sim, topo, _ctx = star () in
  Alcotest.check_raises "out-of-range host"
    (Invalid_argument "fault selector host:9: no such host")
    (fun () ->
       install topo ~seed:1 (ok (F.of_string "down@1ms-2ms:host:9")));
  Alcotest.check_raises "core on a star matches nothing"
    (Invalid_argument
       "fault selector core matches no ports on this topology")
    (fun () ->
       install topo ~seed:1 (ok (F.of_string "down@1ms-2ms:core")))

(* The runner refuses a selector that names a host, node or port the
   fabric lacks before the clock starts, with its own exception (which
   ppt_sim reports as a usage error) instead of letting
   [Invalid_argument] escape. *)
let test_runner_rejects_missing_ports () =
  let open Ppt_harness in
  List.iter
    (fun (s, expect) ->
       let cfg =
         Config.dumbbell ~n_flows:5 ()
         |> Config.with_faults (ok (F.of_string s))
       in
       match Runner.run cfg Schemes.ppt with
       | _ -> Alcotest.fail (s ^ ": ran")
       | exception Runner.Invalid_faults msg ->
         check Alcotest.string s expect msg)
    [ ("down@1ms-2ms:link:99", "fault selector link:99: no such host");
      ("down@1ms-2ms:tohost:3", "fault selector tohost:3: no such host");
      ("down@1ms-2ms:node:9:0", "fault selector node:9:0: no such node");
      ("down@1ms-2ms:node:0:5", "fault selector node:0:5: no such port") ]

(* --- Reliable RTO semantics under a blackout ------------------------ *)

(* Black-hole the sender's NIC for 300ms. The emitted Rto_fire backoffs
   (pre-doubling) must walk 1,2,4,...,64 and then sit at the 64x cap;
   the first ACK after recovery resets the backoff to 1; completing the
   flow cancels the timer. *)
let test_rto_backoff_blackout () =
  let sim, topo, ctx = star () in
  install topo ~seed:1 (ok (F.of_string "down@30us-300ms:host:0"));
  let flow = Flow.create ~id:7 ~src:0 ~dst:1 ~size:200_000 ~start:0 in
  let snd =
    Reliable.create ctx flow (Reliable.default_params ())
      Reliable.default_policy ()
  in
  let rcv = Receiver.create ~lcp_batch:2 ctx flow in
  let done_ = ref false in
  Net.register ctx.Context.net ~host:1 ~flow:7 (fun p ->
      Receiver.on_data rcv p);
  Net.register ctx.Context.net ~host:0 ~flow:7 (fun p ->
      if p.Packet.kind = Packet.Ack then Reliable.on_ack snd p);
  flow.Flow.teardown <- (fun () ->
      done_ := true;
      Reliable.shutdown snd);
  let (), events =
    captured (fun () ->
        Reliable.start snd;
        Sim.run ~until:(Units.sec 2) sim)
  in
  Helpers.assert_drained sim;
  check Alcotest.bool "flow completed after recovery" true !done_;
  let backoffs =
    List.filter_map
      (function
        | _, Event.Rto_fire { flow = 7; backoff } -> Some backoff
        | _ -> None)
      events
  in
  check Alcotest.bool
    (Printf.sprintf "enough fires to reach the cap (%d)"
       (List.length backoffs))
    true
    (List.length backoffs >= 8);
  let prefix l n = List.filteri (fun i _ -> i < n) l in
  check (Alcotest.list Alcotest.int) "backoff doubles then caps at 64"
    [ 1; 2; 4; 8; 16; 32; 64; 64 ] (prefix backoffs 8);
  check Alcotest.bool "never exceeds the cap" true
    (List.for_all (fun b -> b <= 64) backoffs);
  check Alcotest.int "backoff reset to 1 by the recovery ACK" 1
    snd.Reliable.rto_backoff;
  check Alcotest.bool "timer cancelled on completion" true
    (not (Reliable.rto_armed snd))

(* Without any fault the timer must also be gone after a clean run. *)
let test_rto_timer_cancelled_clean () =
  let sim, _topo, ctx = star () in
  let flow = Flow.create ~id:3 ~src:0 ~dst:1 ~size:60_000 ~start:0 in
  let snd =
    Reliable.create ctx flow (Reliable.default_params ())
      Reliable.default_policy ()
  in
  let rcv = Receiver.create ~lcp_batch:2 ctx flow in
  Net.register ctx.Context.net ~host:1 ~flow:3 (fun p ->
      Receiver.on_data rcv p);
  Net.register ctx.Context.net ~host:0 ~flow:3 (fun p ->
      if p.Packet.kind = Packet.Ack then Reliable.on_ack snd p);
  flow.Flow.teardown <- (fun () -> Reliable.shutdown snd);
  Reliable.start snd;
  Sim.run ~until:(Units.sec 2) sim;
  Helpers.assert_drained sim;
  check Alcotest.int "no RTO ever fired (backoff untouched)" 1
    snd.Reliable.rto_backoff;
  check Alcotest.bool "timer cancelled" true
    (not (Reliable.rto_armed snd))

(* --- chaos property: liveness + conservation ------------------------ *)

(* Every fault-killed data packet of a completed flow must be covered
   by a surviving retransmission. Counting at the source NIC:

     attempts(flow, seq) = data enqueues at the source host
                         + reason-'D' kills at the source host
                           (a downed NIC discards instead of enqueuing)

   while every data Fault_drop anywhere in the fabric consumed one of
   those attempts (trimmed headers, wire size <= trim_wire_bytes, carry
   no payload and are exempt). Completion therefore needs strictly more
   attempts than fault deaths. Also cross-checks the trace against the
   ground-truth [Net.total_fault_drops] counter. *)
let fault_conservation ~net ~src_of events =
  let tbl = Hashtbl.create 256 in
  let get k = try Hashtbl.find tbl k with Not_found -> 0 in
  let add k v = Hashtbl.replace tbl k (get k + v) in
  let total_fault_events = ref 0 in
  List.iter
    (fun (_ts, ev) ->
       match (ev : Event.t) with
       | Event.Enqueue { node; flow; seq; kind = 'D'; _ }
         when node = src_of flow ->
         add (`Attempt (flow, seq)) 1
       | Event.Fault_drop { node; flow; seq; kind; size; reason; _ } ->
         incr total_fault_events;
         if kind = 'D' then begin
           if reason = 'D' && node = src_of flow then
             add (`Attempt (flow, seq)) 1;
           if size > Prio_queue.trim_wire_bytes then
             add (`FaultDead (flow, seq)) 1
         end
       | _ -> ())
    events;
  if !total_fault_events <> Net.total_fault_drops net then
    failwith "Fault_drop events disagree with Net.total_fault_drops";
  Hashtbl.iter
    (fun k deaths ->
       match k with
       | `FaultDead (flow, seq) ->
         let attempts = get (`Attempt (flow, seq)) in
         if attempts < deaths + 1 then
           failwith
             (Printf.sprintf
                "flow %d seq %d: %d attempts for %d fault deaths" flow
                seq attempts deaths)
       | _ -> ())
    (Hashtbl.copy tbl)

(* Bounded random fault specs on a 4-host star: windows close by 6ms,
   loss <= 30%, BER <= 4e-6, rate >= 25%, spikes <= 500us — severe but
   always recoverable. Every transport must then complete every flow
   (liveness), leave no pending timers (the sim drains), and satisfy
   the conservation law above. *)
let gen_chaos_spec =
  let open QCheck.Gen in
  let sel =
    oneof
      [ map (fun h -> F.Host h) (int_range 0 3);
        map (fun h -> F.To_host h) (int_range 0 3);
        map (fun h -> F.Link h) (int_range 0 3);
        return F.All ]
  in
  let kind =
    oneof
      [ return F.Down;
        map (fun n -> F.Loss (float_of_int n /. 100.)) (int_range 1 30);
        map (fun n -> F.Ber (float_of_int n *. 1e-7)) (int_range 1 40);
        map (fun n -> F.Rate (float_of_int n /. 100.))
          (int_range 25 100);
        map (fun n -> F.Extra_delay (Units.us n)) (int_range 10 500) ]
  in
  let clause =
    kind >>= fun kind -> int_range 0 3_000 >>= fun from_us ->
    int_range 100 3_000 >>= fun dur_us -> sel >>= fun sel ->
    return
      { F.kind; from_t = Units.us from_us;
        until_t = Units.us (from_us + dur_us); sel }
  in
  list_size (int_range 1 3) clause

let chaos_prop (name, factory, trim) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "%s: liveness + conservation under random faults" name)
    ~count:10
    (QCheck.make
       ~print:(fun (seed, sizes, spec) ->
         Printf.sprintf "seed=%d sizes=[%s] spec=%S" seed
           (String.concat ";" (List.map string_of_int sizes))
           (F.to_string spec))
       QCheck.Gen.(
         int_range 0 1_000 >>= fun seed ->
         list_size (int_range 3 5) (int_range 2_000 150_000)
         >>= fun sizes ->
         gen_chaos_spec >>= fun spec -> return (seed, sizes, spec)))
    (fun (seed, sizes, spec) ->
       let qcfg =
         if trim then
           { (Helpers.default_qcfg ()) with Prio_queue.trim = true }
         else Helpers.default_qcfg ()
       in
       let sim, topo, ctx = star ~seed ~qcfg () in
       install topo ~seed spec;
       let t = factory ctx in
       let src_of flow = flow mod 4 in
       let (), events =
         captured (fun () ->
             Helpers.launch ctx t
               (List.mapi
                  (fun i size ->
                     (src_of i, (i + 1) mod 4, size, i * 100_000))
                  sizes);
             Sim.run ~until:(Units.sec 30) sim)
       in
       if ctx.Context.completed <> List.length sizes then
         failwith
           (Printf.sprintf "liveness: %d/%d flows completed"
              ctx.Context.completed (List.length sizes));
       if Sim.pending sim <> 0 then
         failwith
           (Printf.sprintf "timer leak: %d pending after quiescence"
              (Sim.pending sim));
       fault_conservation ~net:ctx.Context.net ~src_of events;
       true)

(* ExpressPass is left out: a flow in flight when a link goes down can
   lose a whole credit window and never finish (a known defect, listed
   on ROADMAP). *)
let chaos_transports =
  [ ("tcp", Tcp.make (), false);
    ("dctcp", Dctcp.make (), false);
    ("ppt", Ppt_core.Ppt.make (), false);
    ("ndp", Ndp.make (), true);
    ("homa", Homa.make (), false);
    ("aeolus", Homa.make_aeolus (), false) ]

(* --- the canonical flap through the harness ------------------------- *)

(* ISSUE acceptance: under the canonical link flap every transport of
   the chaos set completes 100% of its flows, and the trace shows the
   link transitions. *)
let test_flap_all_schemes () =
  let spec = ok (F.of_string "down@2ms-5ms:link:3") in
  List.iter
    (fun scheme ->
       let cfg =
         Ppt_harness.Config.testbed ~n_flows:20 ~load:0.5 ()
         |> Ppt_harness.Config.with_faults spec
       in
       let r, events =
         captured (fun () -> Ppt_harness.Runner.run cfg scheme)
       in
       check Alcotest.int
         (r.Ppt_harness.Runner.r_scheme ^ ": all flows completed")
         r.Ppt_harness.Runner.requested
         r.Ppt_harness.Runner.completed;
       let s = Summary.of_list events in
       check Alcotest.bool
         (r.Ppt_harness.Runner.r_scheme ^ ": link transitions traced")
         true
         (match List.assoc_opt "link_down" (Summary.by_tag s) with
          | Some n -> n >= 2
          | None -> false))
    Ppt_harness.Schemes.chaos_set

(* --- seed-matrix determinism ---------------------------------------- *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic; s

let traced_run ?faults ~seed scheme path =
  let cfg =
    Ppt_harness.Config.testbed ~n_flows:12 ~load:0.5 ~seed ()
    |> Ppt_harness.Config.with_trace ~path
  in
  let cfg =
    match faults with
    | None -> cfg
    | Some s -> Ppt_harness.Config.with_faults s cfg
  in
  Ppt_harness.Runner.run cfg scheme

(* fig8-small under seeds 1..5 for dctcp and ppt: two runs of the same
   seed must produce a byte-identical JSONL trace and an identical FCT
   record table — the golden guard that new Rng fault draws can never
   perturb existing streams. *)
let test_seed_matrix () =
  List.iter
    (fun scheme ->
       List.iter
         (fun seed ->
            let pa = Filename.temp_file "ppt_seed_a" ".jsonl" in
            let pb = Filename.temp_file "ppt_seed_b" ".jsonl" in
            Fun.protect
              ~finally:(fun () -> Sys.remove pa; Sys.remove pb)
              (fun () ->
                 let ra = traced_run ~seed scheme pa in
                 let rb = traced_run ~seed scheme pb in
                 let tag =
                   Printf.sprintf "%s seed %d"
                     ra.Ppt_harness.Runner.r_scheme seed
                 in
                 check Alcotest.int (tag ^ ": all completed")
                   ra.Ppt_harness.Runner.requested
                   ra.Ppt_harness.Runner.completed;
                 check Alcotest.bool (tag ^ ": byte-identical trace")
                   true
                   (String.equal (read_file pa) (read_file pb));
                 check Alcotest.bool (tag ^ ": identical FCT records")
                   true
                   (ra.Ppt_harness.Runner.records
                    = rb.Ppt_harness.Runner.records)))
         [ 1; 2; 3; 4; 5 ])
    [ Ppt_harness.Schemes.dctcp; Ppt_harness.Schemes.ppt ]

(* An empty spec is the pristine fabric, byte for byte; and a real spec
   must not perturb workload generation (same flow trace in and out of
   chaos). *)
let test_faults_off_is_pristine () =
  let pa = Filename.temp_file "ppt_pristine" ".jsonl" in
  let pb = Filename.temp_file "ppt_empty_spec" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove pa; Sys.remove pb)
    (fun () ->
       let r_plain = traced_run ~seed:3 Ppt_harness.Schemes.ppt pa in
       let r_empty =
         traced_run ~faults:[] ~seed:3 Ppt_harness.Schemes.ppt pb
       in
       check Alcotest.bool "faults=[] is byte-identical to no faults"
         true
         (String.equal (read_file pa) (read_file pb));
       let r_chaos =
         traced_run
           ~faults:(ok (F.of_string "down@2ms-4ms:link:2"))
           ~seed:3 Ppt_harness.Schemes.ppt pb
       in
       (* every completed flow, as (id, size, start), by id *)
       let launched (r : Ppt_harness.Runner.result) =
         List.sort compare
           (List.map
              (fun (c : Ppt_stats.Fct.record) ->
                 (c.Ppt_stats.Fct.flow, c.size, c.start))
              r.Ppt_harness.Runner.records)
       in
       let generated =
         List.map
           (fun (s : Ppt_workload.Trace.spec) -> (s.id, s.size, s.start))
           (Ppt_harness.Runner.flows r_plain.Ppt_harness.Runner.r_config)
       in
       check Alcotest.(list (triple int int int))
         "plain run launches the generated flows" generated
         (launched r_plain);
       check Alcotest.(list (triple int int int))
         "fault spec leaves the generated flow trace unchanged" generated
         (launched r_chaos);
       check Alcotest.int "chaos run still completes"
         r_chaos.Ppt_harness.Runner.requested
         r_chaos.Ppt_harness.Runner.completed;
       ignore r_empty)

let suite =
  [ Alcotest.test_case "spec: parses clauses and aliases" `Quick
      test_parse_basic;
    Alcotest.test_case "spec: rejects malformed clauses" `Quick
      test_parse_rejects;
    Alcotest.test_case "spec: canonical printing" `Quick
      test_print_canonical;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    Alcotest.test_case "spec: canned scenarios parse" `Quick
      test_scenarios_parse;
    Alcotest.test_case "injector: link flap mid-transfer" `Quick
      test_flap_mid_transfer;
    Alcotest.test_case "injector: window after flow is a no-op" `Quick
      test_window_after_flow_is_noop;
    Alcotest.test_case "injector: rate degrade slows the flow" `Quick
      test_degrade_slows;
    Alcotest.test_case "injector: delay spike slows the flow" `Quick
      test_delay_spike_slows;
    Alcotest.test_case "injector: loss kills tagged 'L'" `Quick
      test_loss_reason;
    Alcotest.test_case "injector: corruption kills tagged 'C'" `Quick
      test_ber_reason;
    Alcotest.test_case "injector: deterministic across reruns" `Quick
      test_injector_deterministic;
    Alcotest.test_case "injector: rejects bad selectors" `Quick
      test_install_rejects;
    Alcotest.test_case "rto: backoff ladder under blackout" `Quick
      test_rto_backoff_blackout;
    Alcotest.test_case "rto: timer cancelled on clean completion"
      `Quick test_rto_timer_cancelled_clean ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest (chaos_prop t))
      chaos_transports
  @ [ Alcotest.test_case "harness: flap across the chaos set" `Quick
        test_flap_all_schemes;
      Alcotest.test_case "harness: seed-matrix determinism" `Quick
        test_seed_matrix;
      Alcotest.test_case "harness: faults off is pristine" `Quick
        test_faults_off_is_pristine;
      Alcotest.test_case "spec: rejects NaN and overflowing times" `Quick
        test_parse_rejects_nan_and_overflow;
      QCheck_alcotest.to_alcotest prop_spec_garbage;
      Alcotest.test_case "runner: missing ports are refused" `Quick
        test_runner_rejects_missing_ports ]
