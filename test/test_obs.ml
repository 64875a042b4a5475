(* Tests for the lib/obs tracing subsystem: event-encoding roundtrips,
   ring-sink semantics, golden-trace determinism at event granularity,
   and QCheck conservation laws that tie the emitted trace back to the
   switch queues' ground-truth counters. *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport
open Ppt_obs

let check = Alcotest.check

(* --- fixtures ------------------------------------------------------ *)

let qcfg ?(buffer = Units.kb 200) ?(hp = Units.kb 60)
    ?(lp = Units.kb 40) () =
  { (Prio_queue.default_config ~buffer_bytes:buffer) with
    Prio_queue.mark_thresholds =
      Prio_queue.mark_bands ~hp:(Some hp) ~lp:(Some lp) }

(* A star network with an explicit RNG seed (unlike [Helpers.star],
   which pins seed 42). *)
let star ?(n = 4) ?(delay = Units.us 2) ?(seed = 42) ~qcfg () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:n ~rate:(Units.gbps 10) ~delay ~qcfg ()
  in
  let ctx =
    Context.of_topology ~rto_min:(Units.ms 1) ~rng:(Rng.create seed)
      topo
  in
  (sim, topo, ctx)

let launch ctx (t : Endpoint.transport) specs =
  let sim = ctx.Context.sim in
  List.iteri
    (fun i (src, dst, size, start) ->
       let flow = Flow.create ~id:i ~src ~dst ~size ~start in
       ignore (Sim.schedule_at sim start (fun () ->
           Context.flow_started ctx flow;
           t.Endpoint.t_start flow)))
    specs

(* Run [f] with a fresh ring sink installed; returns (f's result,
   captured events). Fails the test if the ring overflowed — every
   conservation argument needs the complete trace. *)
let captured ?(capacity = 1 lsl 19) f =
  let ring = Trace.Ring.create ~capacity () in
  let r = Trace.with_sink (Trace.Ring.sink ring) f in
  check Alcotest.int "ring kept every event" 0 (Trace.Ring.dropped ring);
  (r, Trace.Ring.to_list ring)

(* --- event encoding ------------------------------------------------ *)

let gen_event =
  let open QCheck.Gen in
  let nat = int_range 0 100_000_000 in
  let kind = oneofl [ 'D'; 'A'; 'G'; 'P'; 'N'; 'C' ] in
  let loop = oneofl [ 'H'; 'L' ] in
  oneof
    [ (nat >>= fun node -> nat >>= fun port -> int_range 0 7
       >>= fun prio -> nat >>= fun flow -> nat >>= fun seq ->
       kind >>= fun kind -> nat >>= fun size -> nat >>= fun occ ->
       oneofl
         [ Event.Enqueue { node; port; prio; flow; seq; kind; size; occ };
           Event.Dequeue { node; port; prio; flow; seq; kind; size; occ };
           Event.Drop { node; port; prio; flow; seq; kind; size; occ } ]);
      (nat >>= fun node -> nat >>= fun port -> int_range 0 7
       >>= fun prio -> nat >>= fun flow -> nat >>= fun seq ->
       nat >>= fun occ -> nat >>= fun threshold ->
       return
         (Event.Ecn_mark { node; port; prio; flow; seq; occ; threshold }));
      (nat >>= fun node -> nat >>= fun port -> int_range 0 7
       >>= fun prio -> nat >>= fun flow -> nat >>= fun seq ->
       nat >>= fun cut -> nat >>= fun occ ->
       return (Event.Trim { node; port; prio; flow; seq; cut; occ }));
      (nat >>= fun flow -> nat >>= fun cwnd ->
       return (Event.Cwnd_update { flow; cwnd }));
      (nat >>= fun flow -> bool >>= fun active -> nat >>= fun window ->
       return (Event.Loop_switch { flow; active; window }));
      (nat >>= fun flow -> int_range 1 64 >>= fun backoff ->
       return (Event.Rto_fire { flow; backoff }));
      (nat >>= fun flow -> nat >>= fun seq -> loop >>= fun loop ->
       return (Event.Retransmit { flow; seq; loop }));
      (nat >>= fun flow -> nat >>= fun size ->
       return (Event.Flow_start { flow; size }));
      (nat >>= fun flow -> nat >>= fun size -> nat >>= fun fct ->
       return (Event.Flow_done { flow; size; fct }));
      (nat >>= fun node -> nat >>= fun port -> nat >>= fun occ ->
       nat >>= fun lp_occ ->
       return (Event.Probe_queue { node; port; occ; lp_occ }));
      (nat >>= fun node -> nat >>= fun port -> nat >>= fun tx_bytes ->
       nat >>= fun util_ppm ->
       return (Event.Probe_link { node; port; tx_bytes; util_ppm }));
      (nat >>= fun node -> nat >>= fun port -> nat >>= fun hp ->
       nat >>= fun lp ->
       return (Event.Probe_dt { node; port; hp; lp }));
      (nat >>= fun node -> nat >>= fun port ->
       oneofl
         [ Event.Link_down { node; port };
           Event.Link_up { node; port } ]);
      (nat >>= fun node -> nat >>= fun port -> nat >>= fun rate_ppm ->
       nat >>= fun extra_delay ->
       return
         (Event.Link_degrade { node; port; rate_ppm; extra_delay }));
      (nat >>= fun node -> nat >>= fun port -> nat >>= fun flow ->
       nat >>= fun seq -> kind >>= fun kind -> nat >>= fun size ->
       oneofl [ 'L'; 'C'; 'D' ] >>= fun reason ->
       return
         (Event.Fault_drop { node; port; flow; seq; kind; size; reason }))
    ]

let prop_json_roundtrip =
  QCheck.Test.make ~name:"event: JSONL roundtrip is lossless"
    ~count:200
    (QCheck.make
       ~print:(fun (ts, ev) -> Event.to_json_line ~ts ev)
       QCheck.Gen.(int_range 0 1_000_000_000_000 >>= fun ts ->
                   gen_event >>= fun ev -> return (ts, ev)))
    (fun (ts, ev) ->
       Event.of_json_line (Event.to_json_line ~ts ev) = Some (ts, ev))

let test_json_rejects_garbage () =
  check Alcotest.bool "empty line" true (Event.of_json_line "" = None);
  check Alcotest.bool "not json" true
    (Event.of_json_line "hello world" = None);
  check Alcotest.bool "unknown tag" true
    (Event.of_json_line {|{"t":1,"ev":"martian","flow":1}|} = None);
  check Alcotest.bool "missing field" true
    (Event.of_json_line {|{"t":1,"ev":"cwnd_update","flow":1}|} = None)

(* --- binary trace encoding ----------------------------------------- *)

let encode_stream events =
  let b = Buffer.create 4096 in
  List.iter (fun (ts, ev) -> Event.add_binary b ~ts ev) events;
  Buffer.contents b

let decode_stream s =
  let pos = ref 0 in
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    match Event.of_binary s pos with
    | Some tev -> acc := tev :: !acc
    | None -> continue := false
  done;
  List.rev !acc

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"event: binary roundtrip is lossless"
    ~count:300
    (QCheck.make
       ~print:(fun (ts, ev) -> Event.to_json_line ~ts ev)
       QCheck.Gen.(int_range 0 1_000_000_000_000 >>= fun ts ->
                   gen_event >>= fun ev -> return (ts, ev)))
    (fun (ts, ev) ->
       decode_stream (encode_stream [ (ts, ev) ]) = [ (ts, ev) ])

(* Control packets carry seq = -1, and zigzag must round-trip the whole
   int range, not just the naturals the generator produces. *)
let test_binary_negative_ints () =
  let evs =
    [ (0,
       Event.Enqueue
         { node = 0; port = 0; prio = 0; flow = 7; seq = -1; kind = 'A';
           size = 64; occ = 64 });
      (1, Event.Retransmit { flow = 0; seq = -1; loop = 'H' });
      (2, Event.Flow_done { flow = max_int; size = min_int; fct = -1 });
      (max_int, Event.Cwnd_update { flow = -1; cwnd = max_int }) ]
  in
  check Alcotest.bool "negative and extreme ints roundtrip" true
    (decode_stream (encode_stream evs) = evs)

(* --- wire-format pin ----------------------------------------------- *)

(* Checked-in bytes for every event kind, both [active] values, and
   negative and extreme ints. The roundtrip properties above still pass
   if both codecs change a field's order or a tag in the same way; this
   table does not. A failure here means every existing trace file and
   every golden output reads differently. *)
let pinned =
  [ (0,
     Event.Enqueue
       { node = 3; port = 1; prio = 2; flow = 7; seq = -1; kind = 'A';
         size = 64; occ = 1500 },
     {|{"t":0,"ev":"enqueue","node":3,"port":1,"prio":2,"flow":7,"seq":-1,"kind":"A","size":64,"occ":1500}|},
     "00000602040e01418001b817");
    (1,
     Event.Dequeue
       { node = 4; port = 0; prio = 7; flow = 8; seq = 1460; kind = 'D';
         size = 1500; occ = 0 },
     {|{"t":1,"ev":"dequeue","node":4,"port":0,"prio":7,"flow":8,"seq":1460,"kind":"D","size":1500,"occ":0}|},
     "010208000e10e81644b81700");
    (2,
     Event.Ecn_mark
       { node = 5; port = 2; prio = 0; flow = 9; seq = 2920; occ = 61_000;
         threshold = 60_000 },
     {|{"t":2,"ev":"ecn_mark","node":5,"port":2,"prio":0,"flow":9,"seq":2920,"occ":61000,"threshold":60000}|},
     "02040a040012d02d90b907c0a907");
    (3,
     Event.Drop
       { node = 6; port = 3; prio = 5; flow = 10; seq = 0; kind = 'G';
         size = 84; occ = 200_000 },
     {|{"t":3,"ev":"drop","node":6,"port":3,"prio":5,"flow":10,"seq":0,"kind":"G","size":84,"occ":200000}|},
     "03060c060a140047a80180b518");
    (4,
     Event.Trim
       { node = 7; port = 4; prio = 6; flow = 11; seq = 4380; cut = 1436;
         occ = 30_064 },
     {|{"t":4,"ev":"trim","node":7,"port":4,"prio":6,"flow":11,"seq":4380,"cut":1436,"occ":30064}|},
     "04080e080c16b844b816e0d503");
    (5, Event.Cwnd_update { flow = 12; cwnd = 14_600 },
     {|{"t":5,"ev":"cwnd_update","flow":12,"cwnd":14600}|},
     "050a1890e401");
    (6, Event.Loop_switch { flow = 13; active = true; window = 43_800 },
     {|{"t":6,"ev":"loop_switch","flow":13,"active":true,"window":43800}|},
     "060c1a01b0ac05");
    (7, Event.Loop_switch { flow = 13; active = false; window = 0 },
     {|{"t":7,"ev":"loop_switch","flow":13,"active":false,"window":0}|},
     "060e1a0000");
    (8, Event.Rto_fire { flow = 14; backoff = 64 },
     {|{"t":8,"ev":"rto_fire","flow":14,"backoff":64}|},
     "07101c8001");
    (9, Event.Retransmit { flow = 15; seq = -1; loop = 'L' },
     {|{"t":9,"ev":"retransmit","flow":15,"seq":-1,"loop":"L"}|},
     "08121e014c");
    (10, Event.Flow_start { flow = 16; size = 1_000_000 },
     {|{"t":10,"ev":"flow_start","flow":16,"size":1000000}|},
     "09142080897a");
    (11, Event.Flow_done { flow = max_int; size = min_int; fct = -1 },
     {|{"t":11,"ev":"flow_done","flow":4611686018427387903,"size":-4611686018427387904,"fct":-1}|},
     "0a16feffffffffffffff7fffffffffffffffff7f01");
    (12, Event.Probe_queue { node = 17; port = 5; occ = 3000; lp_occ = 1500 },
     {|{"t":12,"ev":"probe_queue","node":17,"port":5,"occ":3000,"lp_occ":1500}|},
     "0b18220af02eb817");
    (13,
     Event.Probe_link
       { node = 18; port = 6; tx_bytes = 123_456_789; util_ppm = 1_000_000 },
     {|{"t":13,"ev":"probe_link","node":18,"port":6,"tx_bytes":123456789,"util_ppm":1000000}|},
     "0c1a240caab4de7580897a");
    (14, Event.Probe_dt { node = 19; port = 7; hp = 80_000; lp = 10_000 },
     {|{"t":14,"ev":"probe_dt","node":19,"port":7,"hp":80000,"lp":10000}|},
     "0d1c260e80e209a09c01");
    (15, Event.Link_down { node = 20; port = 8 },
     {|{"t":15,"ev":"link_down","node":20,"port":8}|},
     "0e1e2810");
    (16, Event.Link_up { node = 21; port = 9 },
     {|{"t":16,"ev":"link_up","node":21,"port":9}|},
     "0f202a12");
    (17,
     Event.Link_degrade
       { node = 22; port = 10; rate_ppm = 250_000; extra_delay = 5_000 },
     {|{"t":17,"ev":"link_degrade","node":22,"port":10,"rate_ppm":250000,"extra_delay":5000}|},
     "10222c14a0c21e904e");
    (max_int,
     Event.Fault_drop
       { node = 23; port = 11; flow = 24; seq = 7300; kind = 'N';
         size = 64; reason = 'C' },
     {|{"t":4611686018427387903,"ev":"fault_drop","node":23,"port":11,"flow":24,"seq":7300,"kind":"N","size":64,"reason":"C"}|},
     "11feffffffffffffff7f2e163088724e800143");
    (min_int, Event.Cwnd_update { flow = -1; cwnd = max_int },
     {|{"t":-4611686018427387904,"ev":"cwnd_update","flow":-1,"cwnd":4611686018427387903}|},
     "05ffffffffffffffff7f01feffffffffffffff7f") ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let test_wire_bytes_pinned () =
  List.iter
    (fun (ts, ev, json, bin) ->
       check Alcotest.string "JSONL bytes" json (Event.to_json_line ~ts ev);
       check Alcotest.string "binary bytes" bin
         (hex (encode_stream [ (ts, ev) ]));
       check Alcotest.bool ("JSONL parses back: " ^ json) true
         (Event.of_json_line json = Some (ts, ev)))
    pinned;
  let evs = List.map (fun (ts, ev, _, _) -> (ts, ev)) pinned in
  check Alcotest.bool "pinned stream decodes back" true
    (decode_stream (encode_stream evs) = evs);
  check Alcotest.int "every kind pinned" 18
    (List.length
       (List.sort_uniq compare (List.map (fun (_, ev) -> Event.tag ev) evs)))

(* --- decoder fuzzing ------------------------------------------------ *)

(* Truncate an encoding at [cut] and flip the bits of [flips]
   (position, mask) pairs, positions taken modulo the length. *)
let mangle s ~cut ~flips =
  let b = Bytes.of_string (String.sub s 0 (min cut (String.length s))) in
  let n = Bytes.length b in
  if n > 0 then
    List.iter
      (fun (at, mask) ->
         let i = at mod n in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
      flips;
  Bytes.to_string b

let gen_mangled =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (pair (int_range (-1_000_000) 1_000_000_000_000) gen_event)
    >>= fun evs ->
    int_range 0 400 >>= fun cut ->
    list_size (int_range 0 4) (pair (int_bound 10_000) (int_range 1 255))
    >>= fun flips -> return (evs, cut, flips))

(* Every call must return [None] or an event (and then advance), or
   raise [Failure] for binary — never another exception, never a
   stuck position. *)
let prop_decoders_total =
  QCheck.Test.make ~name:"event: decoders survive truncation and bit flips"
    ~count:1000
    (QCheck.make
       ~print:(fun (evs, cut, flips) ->
           Printf.sprintf "%s\ncut %d, flips %s"
             (String.concat "\n"
                (List.map (fun (ts, ev) -> Event.to_json_line ~ts ev) evs))
             cut
             (String.concat ";"
                (List.map (fun (a, m) -> Printf.sprintf "%d^%d" a m) flips)))
       gen_mangled)
    (fun (evs, cut, flips) ->
       let bin = mangle (encode_stream evs) ~cut ~flips in
       let pos = ref 0 and ok = ref true in
       (try
          while !ok do
            let before = !pos in
            match Event.of_binary bin pos with
            | None -> ok := false
            | Some _ -> if !pos <= before then failwith "stuck"
          done
        with Failure msg when msg <> "stuck" -> ());
       List.for_all
         (fun (ts, ev) ->
            let line = mangle (Event.to_json_line ~ts ev) ~cut ~flips in
            match Event.of_json_line line with
            | None | Some _ -> true)
         evs)

(* --- sink plumbing ------------------------------------------------- *)

let test_ring_overwrite () =
  let ring = Trace.Ring.create ~capacity:4 () in
  let sink = Trace.Ring.sink ring in
  for i = 1 to 6 do sink i (Event.Flow_start { flow = i; size = i }) done;
  check Alcotest.int "length capped" 4 (Trace.Ring.length ring);
  check Alcotest.int "total counts everything" 6 (Trace.Ring.total ring);
  check Alcotest.int "dropped = overflow" 2 (Trace.Ring.dropped ring);
  check (Alcotest.list Alcotest.int) "keeps the newest, oldest first"
    [ 3; 4; 5; 6 ]
    (List.map fst (Trace.Ring.to_list ring))

let test_disabled_by_default_and_restored () =
  check Alcotest.bool "tracing off by default" false !Trace.enabled;
  (try
     Trace.with_sink (fun _ _ -> ()) (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "cleared after exception" false !Trace.enabled;
  let n = ref 0 in
  Trace.with_sink (fun _ _ -> incr n) (fun () ->
      check Alcotest.bool "enabled inside" true !Trace.enabled;
      Trace.emit 0 (Event.Flow_start { flow = 0; size = 0 }));
  check Alcotest.int "sink saw the event" 1 !n;
  check Alcotest.bool "cleared after with_sink" false !Trace.enabled

(* --- golden-trace determinism -------------------------------------- *)

(* A canonical 2-host DCTCP config: same seed => the trace must match
   event for event, run after run (PR 1's calendar-queue determinism
   claim, now at trace granularity instead of summary granularity). *)
let dctcp_2host_events seed =
  let _, events =
    captured (fun () ->
        let sim, _topo, ctx = star ~n:2 ~seed ~qcfg:(qcfg ()) () in
        let t = Dctcp.make () ctx in
        launch ctx t
          [ (0, 1, 200_000, 0); (1, 0, 150_000, 5_000);
            (0, 1, 60_000, 10_000) ];
        Sim.run ~until:(Units.sec 5) sim;
        check Alcotest.int "all flows done" 3 ctx.Context.completed)
  in
  events

(* 4-host PPT with enough BDP headroom that the LCP opens. *)
let ppt_4host_events seed =
  let _, events =
    captured (fun () ->
        let sim, _topo, ctx =
          star ~n:4 ~delay:(Units.us 20) ~seed ~qcfg:(qcfg ()) ()
        in
        let t = Ppt_core.Ppt.make () ctx in
        launch ctx t
          [ (0, 3, 1_000_000, 0); (1, 3, 40_000, 20_000);
            (2, 0, 600_000, 50_000) ];
        Sim.run ~until:(Units.sec 5) sim;
        check Alcotest.int "all flows done" 3 ctx.Context.completed)
  in
  events

let jsonl_of events =
  String.concat "\n"
    (List.map (fun (ts, ev) -> Event.to_json_line ~ts ev) events)

(* The binary stream must reproduce the JSONL encoding byte for byte
   once decoded and re-rendered — that is what lets `ppt_trace decode`
   inherit the golden-trace guarantees. *)
let test_binary_decode_matches_jsonl () =
  let events = dctcp_2host_events 1 in
  check Alcotest.bool "trace nonempty" true (List.length events > 100);
  let direct = jsonl_of events in
  let decoded = decode_stream (encode_stream events) in
  check Alcotest.bool "decode(encode(trace)) = trace as JSONL" true
    (String.equal direct (jsonl_of decoded))

(* --- packet pooling is invisible ----------------------------------- *)

(* Recycling packets must not change a single event: the same runs with
   the free list disabled have to produce byte-identical traces. *)
let test_pooling_invisible () =
  let with_pooling b f =
    let was = Packet.pooling () in
    Packet.set_pooling b;
    Fun.protect ~finally:(fun () -> Packet.set_pooling was) f
  in
  let dctcp_on = with_pooling true (fun () -> dctcp_2host_events 1) in
  let dctcp_off = with_pooling false (fun () -> dctcp_2host_events 1) in
  check Alcotest.bool "dctcp: pooling on/off traces identical" true
    (String.equal (jsonl_of dctcp_on) (jsonl_of dctcp_off));
  let ppt_on = with_pooling true (fun () -> ppt_4host_events 1) in
  let ppt_off = with_pooling false (fun () -> ppt_4host_events 1) in
  check Alcotest.bool "ppt: pooling on/off traces identical" true
    (String.equal (jsonl_of ppt_on) (jsonl_of ppt_off))

(* --- uid reset across in-process runs ------------------------------ *)

(* Packet spraying hashes the packet uid, so rerunning an experiment in
   the same process only reproduces the first trace if the uid
   sequence restarts with each run ([Context.create] resets it). The
   interleaved unrelated run perturbs the counter between the two
   measured runs. *)
let spray_events () =
  let _, events =
    captured (fun () ->
        let sim = Sim.create () in
        let topo =
          Topology.leaf_spine ~routing:Topology.Per_packet ~sim
            ~hosts_per_leaf:4 ~n_leaf:2 ~n_spine:2
            ~edge_rate:(Units.gbps 10) ~core_rate:(Units.gbps 10)
            ~edge_delay:(Units.us 2) ~core_delay:(Units.us 2)
            ~qcfg:(qcfg ()) ()
        in
        let ctx =
          Context.of_topology ~rto_min:(Units.ms 1)
            ~rng:(Rng.create 7) topo
        in
        let t = Dctcp.make () ctx in
        launch ctx t [ (0, 5, 300_000, 0); (1, 6, 200_000, 3_000) ];
        Sim.run ~until:(Units.sec 5) sim;
        check Alcotest.int "spray flows done" 2 ctx.Context.completed)
  in
  events

let test_uid_reset_reruns () =
  let a = spray_events () in
  ignore (dctcp_2host_events 9);   (* perturb the global uid counter *)
  let b = spray_events () in
  check Alcotest.bool "spray trace nonempty" true (List.length a > 100);
  check Alcotest.bool "rerun is byte-identical despite interleaved run"
    true
    (String.equal (jsonl_of a) (jsonl_of b))

let test_golden_dctcp () =
  List.iter
    (fun seed ->
       let a = dctcp_2host_events seed in
       let b = dctcp_2host_events seed in
       check Alcotest.bool "trace nonempty" true (List.length a > 100);
       check Alcotest.bool
         (Printf.sprintf "seed %d: identical event-for-event" seed)
         true (a = b);
       check Alcotest.bool
         (Printf.sprintf "seed %d: identical JSONL" seed)
         true (String.equal (jsonl_of a) (jsonl_of b)))
    [ 1; 2; 3 ]

let test_golden_ppt_lcp () =
  List.iter
    (fun seed ->
       let a = ppt_4host_events seed in
       let b = ppt_4host_events seed in
       check Alcotest.bool
         (Printf.sprintf "seed %d: identical event-for-event" seed)
         true (a = b);
       (* the trace must actually show the dual-loop dynamics: an LCP
          loop opened, and opportunistic (low-band) data hit the wire *)
       let opened =
         List.exists
           (function
             | _, Event.Loop_switch { active = true; window; _ } ->
               window > 0
             | _ -> false)
           a
       in
       let lp_data =
         List.exists
           (function
             | _, Event.Enqueue { prio; kind = 'D'; _ } ->
               prio >= Prio_queue.lp_band_start
             | _ -> false)
           a
       in
       check Alcotest.bool "LCP loop opened in trace" true opened;
       check Alcotest.bool "low-priority data in trace" true lp_data)
    [ 1; 2 ]

(* --- conservation laws over traces --------------------------------- *)

(* Tie the trace to the queues' ground truth. For every port queue:
     enqueued bytes (incl. trimmed headers) - dequeued bytes
       = final occupancy,
   per-event counts match the Prio_queue counters, occupancy never
   exceeds that port's configured buffer, and every ECN mark was
   emitted at an occupancy strictly above its threshold. Finally,
   every dropped data packet of a completed flow must correspond to a
   surviving retransmission: transmissions at the source NIC exceed
   total in-network deaths of that (flow, seq). *)
let conservation_checks ~net ~n_flows ~src_of events =
  let tbl = Hashtbl.create 256 in
  let get k = try Hashtbl.find tbl k with Not_found -> 0 in
  let add k v = Hashtbl.replace tbl k (get k + v) in
  let buffer node port =
    Prio_queue.buffer_bytes (Ppt_netsim.Net.port net node port).Net.q
  in
  List.iter
    (fun (_ts, ev) ->
       match (ev : Event.t) with
       | Event.Enqueue { node; port; prio; flow; seq; kind; size; occ }
         ->
         add (`Enq (node, port, prio)) size;
         add (`EnqCnt (node, port)) 1;
         if occ > buffer node port then
           failwith "enqueue occupancy exceeds buffer";
         if kind = 'D' then add (`Tx (flow, seq, node)) 1
       | Event.Trim { node; port; prio; flow; seq; occ; _ } ->
         add (`Enq (node, port, prio)) Prio_queue.trim_wire_bytes;
         add (`EnqCnt (node, port)) 1;
         add (`TrimCnt (node, port)) 1;
         add (`Dead (flow, seq)) 1;
         if occ > buffer node port then
           failwith "trim occupancy exceeds buffer"
       | Event.Dequeue { node; port; prio; size; occ; _ } ->
         add (`Deq (node, port, prio)) size;
         if occ > buffer node port then
           failwith "dequeue occupancy exceeds buffer"
       | Event.Drop { node; port; flow; seq; kind; occ; _ } ->
         add (`DropCnt (node, port)) 1;
         if occ > buffer node port then
           failwith "drop occupancy exceeds buffer";
         if kind = 'D' then begin
           add (`Dead (flow, seq)) 1;
           add (`Tx (flow, seq, node)) 1
         end
       | Event.Ecn_mark { node; port; occ; threshold; _ } ->
         add (`MarkCnt (node, port)) 1;
         if occ <= threshold then
           failwith "ecn mark below its threshold"
       | _ -> ())
    events;
  (* per-queue byte conservation + counter equality vs ground truth *)
  for nid = 0 to Net.n_nodes net - 1 do
    Array.iter
      (fun (p : Net.port) ->
         let q = p.Net.q in
         let pix = p.Net.pix in
         for prio = 0 to Prio_queue.n_prios - 1 do
           let traced =
             get (`Enq (nid, pix, prio)) - get (`Deq (nid, pix, prio))
           in
           if traced <> Prio_queue.queue_bytes q prio then
             failwith
               (Printf.sprintf
                  "queue (%d,%d,p%d): enq-deq=%d but occupancy=%d" nid
                  pix prio traced (Prio_queue.queue_bytes q prio))
         done;
         if get (`EnqCnt (nid, pix)) <> Prio_queue.enqueues q then
           failwith "enqueue count mismatch vs queue counter";
         if get (`DropCnt (nid, pix)) <> Prio_queue.drops q then
           failwith "drop count mismatch vs queue counter";
         if get (`TrimCnt (nid, pix)) <> Prio_queue.trims q then
           failwith "trim count mismatch vs queue counter";
         if get (`MarkCnt (nid, pix)) <> Prio_queue.marks q then
           failwith "mark count mismatch vs queue counter")
      (Net.node net nid).Net.ports
  done;
  (* every dead data byte was retransmitted: for each (flow, seq) the
     source NIC carried strictly more transmissions than in-network
     deaths, so at least one copy survived to the receiver *)
  Hashtbl.iter
    (fun k deaths ->
       match k with
       | `Dead (flow, seq) ->
         let src = src_of flow in
         let tx = get (`Tx (flow, seq, src)) in
         if tx < deaths + 1 then
           failwith
             (Printf.sprintf
                "flow %d seq %d: %d transmissions for %d deaths" flow
                seq tx deaths)
       | _ -> ())
    (Hashtbl.copy tbl);
  ignore n_flows;
  true

let conservation_prop name factory =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "%s: trace conservation laws under drop-tail loss" name)
    ~count:30
    QCheck.(pair (int_range 0 1_000)
              (list_of_size (Gen.int_range 1 6) (int_range 1 250_000)))
    (fun (seed, sizes) ->
       let sim, _topo, ctx =
         star ~n:4 ~seed
           ~qcfg:(qcfg ~buffer:(Units.kb 30) ~hp:(Units.kb 18)
                    ~lp:(Units.kb 12) ())
           ()
       in
       let t = factory ctx in
       List.iteri
         (fun i size ->
            let flow =
              Flow.create ~id:i ~src:(i mod 3) ~dst:3 ~size
                ~start:(i * 1_000)
            in
            ignore (Sim.schedule_at sim flow.Flow.start (fun () ->
                t.Endpoint.t_start flow)))
         sizes;
       let ring = Trace.Ring.create ~capacity:(1 lsl 19) () in
       Trace.with_sink (Trace.Ring.sink ring) (fun () ->
           Sim.run ~until:(Units.sec 30) sim);
       if Trace.Ring.dropped ring > 0 then failwith "ring overflow";
       if ctx.Context.completed <> List.length sizes then
         failwith "not all flows completed";
       conservation_checks ~net:ctx.Context.net
         ~n_flows:(List.length sizes)
         ~src_of:(fun flow -> flow mod 3)
         (Trace.Ring.to_list ring))

(* --- fig8-small through the harness -------------------------------- *)

(* The acceptance scenario: a scaled-down fig8 run (testbed fabric,
   web-search workload) with tracing + probes enabled must write a
   byte-identical JSONL trace on every run, and the trace must parse
   and satisfy the count-level conservation laws. *)
let test_fig8_small_jsonl () =
  let run path =
    let cfg =
      Ppt_harness.Config.testbed ~n_flows:25 ~load:0.5 ()
      |> Ppt_harness.Config.with_trace ~path
           ~probe_interval:(Units.ms 1)
    in
    ignore (Ppt_harness.Runner.run cfg Ppt_harness.Schemes.ppt)
  in
  let pa = Filename.temp_file "ppt_fig8a" ".jsonl" in
  let pb = Filename.temp_file "ppt_fig8b" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove pa; Sys.remove pb)
    (fun () ->
       run pa;
       run pb;
       let read path =
         let ic = open_in path in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic; s
       in
       let a = read pa and b = read pb in
       check Alcotest.bool "trace written" true (String.length a > 0);
       check Alcotest.bool "byte-identical across runs" true
         (String.equal a b);
       (* every line parses; count-level conservation over the parsed
          events *)
       let events =
         String.split_on_char '\n' a
         |> List.filter (fun l -> l <> "")
         |> List.map (fun l ->
             match Event.of_json_line l with
             | Some tev -> tev
             | None -> Alcotest.fail ("unparseable line: " ^ l))
       in
       let enq = Hashtbl.create 64 in
       let get t k = try Hashtbl.find t k with Not_found -> 0 in
       List.iter
         (fun (_, ev) ->
            match (ev : Event.t) with
            | Event.Enqueue { node; port; prio; size; _ } ->
              Hashtbl.replace enq (node, port, prio)
                (get enq (node, port, prio) + size)
            | Event.Dequeue { node; port; prio; size; _ } ->
              Hashtbl.replace enq (node, port, prio)
                (get enq (node, port, prio) - size)
            | Event.Ecn_mark { occ; threshold; _ } ->
              check Alcotest.bool "mark above threshold" true
                (occ > threshold)
            | _ -> ())
         events;
       Hashtbl.iter
         (fun _ leftover ->
            check Alcotest.bool "queue never over-drained" true
              (leftover >= 0))
         enq;
       let s = Summary.of_list events in
       check Alcotest.bool "flows completed in trace" true
         (s.Summary.flows_done = 25);
       check Alcotest.bool "probes sampled" true
         (List.mem_assoc "probe_queue" s.Summary.by_tag))

let suite =
  [ QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_binary_roundtrip;
    Alcotest.test_case "event: binary negatives and extremes" `Quick
      test_binary_negative_ints;
    Alcotest.test_case "event: binary decode reproduces JSONL" `Quick
      test_binary_decode_matches_jsonl;
    Alcotest.test_case "packet pool: recycling is trace-invisible"
      `Quick test_pooling_invisible;
    Alcotest.test_case "packet uids: reset per run (spray rerun)" `Quick
      test_uid_reset_reruns;
    Alcotest.test_case "event: parser rejects garbage" `Quick
      test_json_rejects_garbage;
    Alcotest.test_case "ring: bounded overwrite" `Quick
      test_ring_overwrite;
    Alcotest.test_case "trace: disabled by default, restored" `Quick
      test_disabled_by_default_and_restored;
    Alcotest.test_case "golden: dctcp 2-host, 3 seeds" `Quick
      test_golden_dctcp;
    Alcotest.test_case "golden: ppt 4-host with LCP, 2 seeds" `Quick
      test_golden_ppt_lcp;
    QCheck_alcotest.to_alcotest (conservation_prop "dctcp" (Dctcp.make ()));
    QCheck_alcotest.to_alcotest
      (conservation_prop "ppt" (Ppt_core.Ppt.make ()));
    Alcotest.test_case "harness: fig8-small deterministic JSONL" `Quick
      test_fig8_small_jsonl;
    Alcotest.test_case "event: wire bytes pinned per kind" `Quick
      test_wire_bytes_pinned;
    QCheck_alcotest.to_alcotest prop_decoders_total ]
