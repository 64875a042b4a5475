(* Unit and property tests for the network substrate: packets, the
   strict-priority queue discipline, links, topologies and routing. *)

open Ppt_engine
open Ppt_netsim

let check = Alcotest.check

let mk_pkt ?(prio = 0) ?(payload = 1000) ?(ecn = false) ?(sel_drop = false)
    ?(kind = Packet.Data) ?(seq = 0) ?(flow = 1) ?(src = 0) ?(dst = 1) () =
  Packet.make ~seq ~payload ~prio ~ecn_capable:ecn ~sel_drop ~flow ~src ~dst
    kind

(* --- packets --------------------------------------------------------- *)

let test_packet_sizes () =
  let d = mk_pkt ~payload:1460 () in
  check Alcotest.int "data wire size" 1500 d.Packet.wire;
  let a = mk_pkt ~kind:Packet.Ack () in
  check Alcotest.int "ack wire size" Packet.ctrl_bytes a.Packet.wire

let test_segmentation () =
  check Alcotest.int "0 bytes" 0 (Packet.segments_of_bytes 0);
  check Alcotest.int "1 byte" 1 (Packet.segments_of_bytes 1);
  check Alcotest.int "exactly one segment" 1
    (Packet.segments_of_bytes Packet.max_payload);
  check Alcotest.int "one byte over" 2
    (Packet.segments_of_bytes (Packet.max_payload + 1))

(* --- packet pool ----------------------------------------------------- *)

(* Drive the process-global pool with a random make/release schedule.
   Invariants: [make] never hands out a packet that is still live (no
   aliasing), and a recycled record comes back with every mutable field
   reset even after the previous owner dirtied it. *)
let prop_pool_invariants =
  QCheck.Test.make
    ~name:"packet pool: no aliasing, recycled packets are clean"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) bool)
    (fun ops ->
       let live = ref [] in
       let n = ref 0 in
       List.iter
         (fun mk ->
            if mk || !live = [] then begin
              incr n;
              let p =
                Packet.make ~seq:!n ~payload:100 ~prio:(!n mod 8)
                  ~flow:!n ~src:0 ~dst:1 Packet.Data
              in
              if p.Packet.ecn_ce || p.Packet.trimmed || p.Packet.sel_drop
                 || Packet.tel_count p <> 0
                 || p.Packet.seq <> !n || p.Packet.flow <> !n
                 || p.Packet.hw0 <> 0 || p.Packet.hw1 <> 0
                 || p.Packet.hw2 <> 0 || p.Packet.hw3 <> 0
                 || p.Packet.hflag
              then failwith "stale fields on a recycled packet";
              if List.exists (fun q -> q == p) !live then
                failwith "pool handed out a live packet";
              (* dirty every resettable field so a recycle without a
                 reset is caught on the next acquire *)
              p.Packet.ecn_ce <- true;
              p.Packet.trimmed <- true;
              p.Packet.sel_drop <- true;
              p.Packet.hw0 <- 1;
              p.Packet.hw1 <- 2;
              p.Packet.hw2 <- 3;
              p.Packet.hw3 <- 4;
              p.Packet.hflag <- true;
              Packet.tel_push p ~qlen:1 ~tx_bytes:2 ~ts:3 ~rate:4;
              live := p :: !live
            end
            else
              match !live with
              | p :: rest -> Packet.release p; live := rest
              | [] -> ())
         ops;
       List.iter Packet.release !live;
       true)

(* Debug mode turns ownership bugs into loud failures. *)
let test_pool_debug_checks () =
  Packet.set_debug true;
  Fun.protect ~finally:(fun () -> Packet.set_debug false)
    (fun () ->
       let p = Packet.make ~flow:1 ~src:0 ~dst:1 Packet.Data in
       Packet.release p;
       check Alcotest.bool "header words poisoned" true
         (p.Packet.hw0 = min_int && p.Packet.hw1 = min_int
          && p.Packet.hw2 = min_int && p.Packet.hw3 = min_int);
       (try
          Packet.release p;
          Alcotest.fail "double release not detected"
        with Invalid_argument _ -> ());
       (try
          Packet.assert_live p;
          Alcotest.fail "use after release not detected"
        with Invalid_argument _ -> ());
       (* drain the poisoned packet back out so later tests see a
          healthy pool *)
       let q = Packet.make ~flow:2 ~src:0 ~dst:1 Packet.Data in
       Packet.assert_live q;
       check Alcotest.int "recycled with fresh identity" 2
         q.Packet.flow;
       Packet.release q)

let prop_segment_payloads_sum =
  QCheck.Test.make ~name:"segment payloads sum to the flow size"
    ~count:300
    QCheck.(int_range 1 5_000_000)
    (fun flow_bytes ->
       let n = Packet.segments_of_bytes flow_bytes in
       let total = ref 0 in
       for seq = 0 to n - 1 do
         let p = Packet.segment_payload ~flow_bytes ~seq in
         if p <= 0 || p > Packet.max_payload then raise Exit;
         total := !total + p
       done;
       !total = flow_bytes)

(* --- priority queue --------------------------------------------------- *)

let qcfg ?(buffer = 10_000) ?(thresholds = Prio_queue.no_marking)
    ?(trim = false) ?sel_drop ?lp_cap () =
  { Prio_queue.buffer_bytes = buffer;
    mark_thresholds = thresholds;
    trim;
    sel_drop_threshold = sel_drop;
    lp_buffer_cap = lp_cap;
    dt_alphas = None }

let test_strict_priority_order () =
  let q = Prio_queue.create (qcfg ()) in
  let low = mk_pkt ~prio:5 () and high = mk_pkt ~prio:1 () in
  ignore (Prio_queue.enqueue q low);
  ignore (Prio_queue.enqueue q high);
  (match Prio_queue.dequeue q with
   | Some p -> check Alcotest.int "high first" 1 p.Packet.prio
   | None -> Alcotest.fail "empty");
  (match Prio_queue.dequeue q with
   | Some p -> check Alcotest.int "then low" 5 p.Packet.prio
   | None -> Alcotest.fail "empty")

let test_fifo_within_priority () =
  let q = Prio_queue.create (qcfg ()) in
  let a = mk_pkt ~seq:1 () and b = mk_pkt ~seq:2 () in
  ignore (Prio_queue.enqueue q a);
  ignore (Prio_queue.enqueue q b);
  (match Prio_queue.dequeue q with
   | Some p -> check Alcotest.int "fifo" 1 p.Packet.seq
   | None -> Alcotest.fail "empty")

let test_drop_tail () =
  let q = Prio_queue.create (qcfg ~buffer:2_500 ()) in
  check Alcotest.bool "first fits" true
    (Prio_queue.enqueue q (mk_pkt ()) = Prio_queue.Enqueued);
  check Alcotest.bool "second fits" true
    (Prio_queue.enqueue q (mk_pkt ()) = Prio_queue.Enqueued);
  check Alcotest.bool "third dropped" true
    (Prio_queue.enqueue q (mk_pkt ()) = Prio_queue.Dropped);
  check Alcotest.int "drop counter" 1 (Prio_queue.drops q)

let test_ecn_marking_bands () =
  (* each data packet below is 1000B payload = 1040B wire *)
  let thresholds = Prio_queue.mark_bands ~hp:(Some 5_000) ~lp:(Some 1_000) in
  let q = Prio_queue.create (qcfg ~buffer:100_000 ~thresholds ()) in
  let first = mk_pkt ~prio:0 ~ecn:true () in
  ignore (Prio_queue.enqueue q first);              (* occupancy 1040 *)
  check Alcotest.bool "hp packet under both thresholds unmarked" false
    first.Packet.ecn_ce;
  let lp = mk_pkt ~prio:5 ~ecn:true () in
  ignore (Prio_queue.enqueue q lp);                 (* occupancy 2080 *)
  check Alcotest.bool "lp packet marked above its threshold" true
    lp.Packet.ecn_ce;
  let hp = mk_pkt ~prio:0 ~ecn:true () in
  ignore (Prio_queue.enqueue q hp);                 (* occupancy 3120 *)
  check Alcotest.bool "hp packet below its threshold unmarked" false
    hp.Packet.ecn_ce;
  ignore (Prio_queue.enqueue q (mk_pkt ~prio:0 ~ecn:true ()));  (* 4160 *)
  let hp2 = mk_pkt ~prio:0 ~ecn:true () in
  ignore (Prio_queue.enqueue q hp2);                (* occupancy 5200 *)
  check Alcotest.bool "hp packet above threshold marked" true
    hp2.Packet.ecn_ce

let test_no_mark_without_capability () =
  let thresholds = Prio_queue.mark_bands ~hp:(Some 0) ~lp:(Some 0) in
  let q = Prio_queue.create (qcfg ~buffer:100_000 ~thresholds ()) in
  let p = mk_pkt ~ecn:false () in
  ignore (Prio_queue.enqueue q p);
  check Alcotest.bool "non-capable never marked" false p.Packet.ecn_ce

let test_trimming () =
  let q = Prio_queue.create (qcfg ~buffer:2_000 ~trim:true ()) in
  ignore (Prio_queue.enqueue q (mk_pkt ()));
  let p = mk_pkt ~prio:3 () in
  let v = Prio_queue.enqueue q p in
  check Alcotest.bool "second packet trimmed" true (v = Prio_queue.Trimmed);
  check Alcotest.bool "flag set" true p.Packet.trimmed;
  check Alcotest.int "header at top priority" 0 p.Packet.prio;
  check Alcotest.int "wire shrunk" Prio_queue.trim_wire_bytes p.Packet.wire

let test_selective_drop () =
  let q = Prio_queue.create (qcfg ~buffer:100_000 ~sel_drop:1_500 ()) in
  ignore (Prio_queue.enqueue q (mk_pkt ()));
  let p = mk_pkt ~sel_drop:true () in
  check Alcotest.bool "sel-drop packet dropped above threshold" true
    (Prio_queue.enqueue q p = Prio_queue.Dropped);
  let n = mk_pkt () in
  check Alcotest.bool "normal packet unaffected" true
    (Prio_queue.enqueue q n = Prio_queue.Enqueued)

let test_lp_buffer_cap () =
  let q = Prio_queue.create (qcfg ~buffer:100_000 ~lp_cap:2_000 ()) in
  ignore (Prio_queue.enqueue q (mk_pkt ~prio:5 ()));
  check Alcotest.bool "lp band capped" true
    (Prio_queue.enqueue q (mk_pkt ~prio:6 ()) = Prio_queue.Dropped);
  check Alcotest.bool "hp band unaffected" true
    (Prio_queue.enqueue q (mk_pkt ~prio:0 ()) = Prio_queue.Enqueued)

let test_dynamic_threshold () =
  (* alpha 1.0 on the low band: an LP queue may only hold as many
     bytes as remain free in the whole buffer *)
  let cfg =
    { (qcfg ~buffer:10_000 ()) with
      Prio_queue.dt_alphas = Some (Prio_queue.dt_bands ~hp:8.0 ~lp:1.0) }
  in
  let q = Prio_queue.create cfg in
  (* fill 7280B with high-priority traffic: free = 2720 *)
  for _ = 1 to 7 do
    ignore (Prio_queue.enqueue q (mk_pkt ~prio:0 ()))
  done;
  check Alcotest.bool "first lp packet fits (1040 <= 2720-1040...)" true
    (Prio_queue.enqueue q (mk_pkt ~prio:5 ()) = Prio_queue.Enqueued);
  (* lp queue now 1040B; free = 1640; next lp needs 2080 <= 1640 *)
  check Alcotest.bool "second lp packet squeezed out" true
    (Prio_queue.enqueue q (mk_pkt ~prio:5 ()) = Prio_queue.Dropped);
  (* high band with alpha 8 is still admitted *)
  check Alcotest.bool "hp packet still admitted" true
    (Prio_queue.enqueue q (mk_pkt ~prio:0 ()) = Prio_queue.Enqueued)

let prop_queue_byte_accounting =
  QCheck.Test.make ~name:"queue byte counters stay consistent" ~count:200
    QCheck.(list (pair (int_bound 7) (int_range 1 1460)))
    (fun ops ->
       let q = Prio_queue.create (qcfg ~buffer:1_000_000 ()) in
       List.iter
         (fun (prio, payload) ->
            ignore (Prio_queue.enqueue q (mk_pkt ~prio ~payload ())))
         ops;
       let enqueued = Prio_queue.bytes q in
       let sum = ref 0 in
       let rec drain () =
         match Prio_queue.dequeue q with
         | Some p -> sum := !sum + p.Packet.wire; drain ()
         | None -> ()
       in
       drain ();
       !sum = enqueued && Prio_queue.bytes q = 0
       && Prio_queue.lp_bytes q = 0)

(* --- queue equivalence ------------------------------------------------ *)

(* The pre-optimization queue discipline — one [Queue.t] per priority
   and a linear scan on dequeue — kept verbatim as the semantic
   reference for the ring-buffer/bitmask implementation. *)
module Ref_pq = struct
  open Prio_queue

  type t = {
    cfg : config;
    queues : Packet.t Queue.t array;
    qbytes : int array;
    mutable bytes : int;
    mutable lp_bytes : int;
    mutable enq_pkts : int;
    mutable drop_pkts : int;
    mutable drop_hp_pkts : int;
    mutable drop_lp_pkts : int;
    mutable drop_bytes : int;
    mutable trim_pkts : int;
    mutable mark_pkts : int;
  }

  let create cfg =
    { cfg;
      queues = Array.init n_prios (fun _ -> Queue.create ());
      qbytes = Array.make n_prios 0;
      bytes = 0; lp_bytes = 0;
      enq_pkts = 0; drop_pkts = 0; drop_hp_pkts = 0; drop_lp_pkts = 0;
      drop_bytes = 0; trim_pkts = 0; mark_pkts = 0 }

  let push t (p : Packet.t) =
    let prio = max 0 (min (n_prios - 1) p.Packet.prio) in
    Queue.push p t.queues.(prio);
    t.qbytes.(prio) <- t.qbytes.(prio) + p.Packet.wire;
    t.bytes <- t.bytes + p.Packet.wire;
    if prio >= lp_band_start then
      t.lp_bytes <- t.lp_bytes + p.Packet.wire;
    t.enq_pkts <- t.enq_pkts + 1;
    if p.Packet.ecn_capable then begin
      match t.cfg.mark_thresholds.(prio) with
      | Some k ->
        if t.bytes > k then begin
          if not p.Packet.ecn_ce then t.mark_pkts <- t.mark_pkts + 1;
          p.Packet.ecn_ce <- true
        end
      | None -> ()
    end

  let drop t (p : Packet.t) =
    t.drop_pkts <- t.drop_pkts + 1;
    if p.Packet.prio >= lp_band_start then
      t.drop_lp_pkts <- t.drop_lp_pkts + 1
    else t.drop_hp_pkts <- t.drop_hp_pkts + 1;
    t.drop_bytes <- t.drop_bytes + p.Packet.wire

  let enqueue t (p : Packet.t) =
    let fits extra = t.bytes + extra <= t.cfg.buffer_bytes in
    let dt_fits (p : Packet.t) =
      match t.cfg.dt_alphas with
      | None -> true
      | Some _ when p.Packet.sel_drop -> true
      | Some alphas ->
        let prio = max 0 (min (n_prios - 1) p.Packet.prio) in
        let free = float_of_int (t.cfg.buffer_bytes - t.bytes) in
        float_of_int (t.qbytes.(prio) + p.Packet.wire)
        <= alphas.(prio) *. free
    in
    let lp_fits extra =
      p.Packet.prio < lp_band_start
      || (match t.cfg.lp_buffer_cap with
          | None -> true
          | Some cap -> t.lp_bytes + extra <= cap)
    in
    let sel_dropped =
      p.Packet.sel_drop
      && (match t.cfg.sel_drop_threshold with
          | Some k -> t.bytes + p.Packet.wire > k
          | None -> false)
    in
    if sel_dropped then begin drop t p; Dropped end
    else if fits p.Packet.wire && lp_fits p.Packet.wire && dt_fits p
    then begin push t p; Enqueued end
    else if t.cfg.trim && p.Packet.kind = Packet.Data
            && not p.Packet.trimmed
    then begin
      p.Packet.trimmed <- true;
      p.Packet.wire <- trim_wire_bytes;
      p.Packet.prio <- 0;
      if fits p.Packet.wire then begin
        t.trim_pkts <- t.trim_pkts + 1;
        push t p;
        Trimmed
      end else begin drop t p; Dropped end
    end
    else begin drop t p; Dropped end

  let dequeue t =
    let rec find prio =
      if prio >= n_prios then None
      else if Queue.is_empty t.queues.(prio) then find (prio + 1)
      else begin
        let p = Queue.pop t.queues.(prio) in
        t.qbytes.(prio) <- t.qbytes.(prio) - p.Packet.wire;
        t.bytes <- t.bytes - p.Packet.wire;
        if prio >= lp_band_start then
          t.lp_bytes <- t.lp_bytes - p.Packet.wire;
        Some p
      end
    in
    find 0
end

(* An op is either a dequeue or an enqueue of a packet described by
   (prio 0-9 to exercise clamping, payload, flag bits: 1 = ecn-capable,
   2 = sel_drop, 4 = Ack instead of Data). Both implementations replay
   the same ops on their own packet copies (enqueue mutates packets);
   [seq] identifies packets across the two runs. *)
let replay ~enqueue ~dequeue ops =
  let obs = ref [] in
  let note x = obs := x :: !obs in
  List.iteri
    (fun i op ->
       match op with
       | None -> (
           match dequeue () with
           | None -> note (-1, 0, 0, 0)
           | Some (p : Packet.t) ->
             note
               (p.Packet.seq, p.Packet.prio, p.Packet.wire,
                (if p.Packet.trimmed then 2 else 0)
                lor (if p.Packet.ecn_ce then 1 else 0)))
       | Some (prio, payload, flags) ->
         let p =
           mk_pkt ~prio ~payload
             ~ecn:(flags land 1 <> 0)
             ~sel_drop:(flags land 2 <> 0)
             ~kind:(if flags land 4 <> 0 then Packet.Ack else Packet.Data)
             ~seq:i ()
         in
         note
           ( (match enqueue p with
              | Prio_queue.Enqueued -> 100
              | Prio_queue.Dropped -> 101
              | Prio_queue.Trimmed -> 102),
             0, 0, 0 ))
    ops;
  List.rev !obs

let equiv_configs =
  [ qcfg ~buffer:8_000 ();
    qcfg ~buffer:8_000
      ~thresholds:(Prio_queue.mark_bands ~hp:(Some 3_000) ~lp:(Some 1_000))
      ();
    qcfg ~buffer:6_000 ~trim:true ();
    qcfg ~buffer:8_000 ~sel_drop:2_000 ();
    qcfg ~buffer:8_000 ~lp_cap:2_500 ();
    { (qcfg ~buffer:8_000 ()) with
      Prio_queue.dt_alphas =
        Some (Prio_queue.dt_bands ~hp:8.0 ~lp:1.0) } ]

let prop_queue_matches_reference =
  QCheck.Test.make
    ~name:"ring/bitmask queue matches 8-FIFO linear-scan reference"
    ~count:100
    QCheck.(
      list
        (option (triple (int_bound 9) (int_range 1 1460) (int_bound 7))))
    (fun ops ->
       List.for_all
         (fun cfg ->
            let q = Prio_queue.create cfg in
            let r = Ref_pq.create cfg in
            let t_new =
              replay
                ~enqueue:(Prio_queue.enqueue q)
                ~dequeue:(fun () -> Prio_queue.dequeue q)
                ops
            in
            let t_ref =
              replay ~enqueue:(Ref_pq.enqueue r)
                ~dequeue:(fun () -> Ref_pq.dequeue r)
                ops
            in
            t_new = t_ref
            && Prio_queue.bytes q = r.Ref_pq.bytes
            && Prio_queue.lp_bytes q = r.Ref_pq.lp_bytes
            && Prio_queue.drops q = r.Ref_pq.drop_pkts
            && Prio_queue.drops_hp q = r.Ref_pq.drop_hp_pkts
            && Prio_queue.drops_lp q = r.Ref_pq.drop_lp_pkts
            && Prio_queue.drop_bytes q = r.Ref_pq.drop_bytes
            && Prio_queue.trims q = r.Ref_pq.trim_pkts
            && Prio_queue.marks q = r.Ref_pq.mark_pkts
            && Prio_queue.enqueues q = r.Ref_pq.enq_pkts)
         equiv_configs)

(* --- fabric ----------------------------------------------------------- *)

let test_star_delivery () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
      ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 100)) ()
  in
  let got = ref [] in
  Net.register topo.Topology.net ~host:2 ~flow:7 (fun p ->
      got := p.Packet.seq :: !got);
  List.iter
    (fun seq ->
       Net.send topo.Topology.net
         (mk_pkt ~seq ~flow:7 ~dst:2 ()))
    [ 0; 1; 2 ];
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "in-order delivery" [ 0; 1; 2 ]
    (List.rev !got)

let test_serialization_timing () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:2 ~rate:(Units.gbps 10)
      ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 100)) ()
  in
  let arrival = ref 0 in
  Net.register topo.Topology.net ~host:1 ~flow:1 (fun _ ->
      arrival := Sim.now sim);
  let p = mk_pkt ~payload:1460 () in
  Net.send topo.Topology.net p;
  Sim.run sim;
  (* two hops: 2 x (1200ns serialization + 1000ns propagation) *)
  check Alcotest.int "arrival time" 4_400 !arrival

let test_undeliverable_counted () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:2 ~rate:(Units.gbps 10)
      ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 100)) ()
  in
  Net.send topo.Topology.net (mk_pkt ());
  Sim.run sim;
  check Alcotest.int "unregistered flow counted" 1
    (Net.undeliverable topo.Topology.net)

(* The fabric carries packets by arena id, so it refuses a record the
   arena does not hold: a [{ p with ... }] copy would be read back as
   its original, and a packet made before [Packet.reset] names an id
   that now belongs to another packet or to none. *)
let test_send_refuses_foreign_packets () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:2 ~rate:(Units.gbps 10)
      ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 100)) ()
  in
  let net = topo.Topology.net in
  let got = ref 0 in
  Net.register net ~host:1 ~flow:1 (fun _ -> incr got);
  let refused p =
    match Net.send net p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let p = mk_pkt () in
  check Alcotest.bool "a copy is refused" true
    (refused { p with Packet.seq = 5 });
  Packet.reset ();
  check Alcotest.bool "a packet from before the reset is refused" true
    (refused p);
  let q = mk_pkt () in
  check Alcotest.int "ids restart at 0" 0 q.Packet.id;
  check Alcotest.bool "the same id, another record: still refused" true
    (refused p);
  check Alcotest.bool "a current packet is sent" false (refused q);
  Sim.run sim;
  check Alcotest.int "only the current packet arrived" 1 !got

(* The delivery table: two (host, handler) slots per flow, reached by
   flow id at any size, with bad registrations refused up front. *)
let test_delivery_table () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
      ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 100)) ()
  in
  let net = topo.Topology.net in
  let got = Array.make 3 0 in
  let flow = 200_000 in
  Net.register net ~host:1 ~flow (fun _ -> got.(1) <- got.(1) + 1);
  Net.register net ~host:0 ~flow (fun _ -> got.(0) <- got.(0) + 1);
  (* re-registering at a host replaces its handler *)
  Net.register net ~host:1 ~flow (fun _ -> got.(2) <- got.(2) + 1);
  let send ~src ~dst =
    Net.send net (mk_pkt ~flow ~src ~dst ())
  in
  send ~src:0 ~dst:1;
  send ~src:1 ~dst:0;
  send ~src:0 ~dst:2;
  Sim.run sim;
  check (Alcotest.array Alcotest.int) "each end gets its packet"
    [| 1; 0; 1 |] got;
  check Alcotest.int "no handler at host 2" 1 (Net.undeliverable net);
  let refused f = try f (); false with Invalid_argument _ -> true in
  check Alcotest.bool "third host refused" true
    (refused (fun () -> Net.register net ~host:2 ~flow ignore));
  check Alcotest.bool "negative flow refused" true
    (refused (fun () -> Net.register net ~host:0 ~flow:(-1) ignore));
  check Alcotest.bool "switch refused" true
    (refused (fun () -> Net.register net ~host:3 ~flow:1 ignore));
  check Alcotest.bool "outside the network refused" true
    (refused (fun () -> Net.register net ~host:4 ~flow:1 ignore));
  Net.unregister net ~host:0 ~flow;
  Net.register net ~host:2 ~flow ignore;
  send ~src:1 ~dst:0;
  Sim.run sim;
  check Alcotest.int "unregistered end no longer delivers" 2
    (Net.undeliverable net)

let leaf_spine () =
  let sim = Sim.create () in
  let topo =
    Topology.leaf_spine ~sim ~hosts_per_leaf:4 ~n_leaf:3 ~n_spine:2
      ~edge_rate:(Units.gbps 10) ~core_rate:(Units.gbps 40)
      ~edge_delay:(Units.us 1) ~core_delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 200)) ()
  in
  (sim, topo)

let test_leaf_spine_shape () =
  let _sim, topo = leaf_spine () in
  check Alcotest.int "12 hosts" 12 (Array.length topo.Topology.hosts);
  check Alcotest.int "17 nodes" 17 (Net.n_nodes topo.Topology.net)

let test_leaf_spine_cross_rack () =
  let sim, topo = leaf_spine () in
  let got = ref 0 in
  Net.register topo.Topology.net ~host:11 ~flow:5 (fun _ -> incr got);
  (* host 0 (leaf 0) to host 11 (leaf 2): 4 hops *)
  Net.send topo.Topology.net
    (mk_pkt ~flow:5 ~src:0 ~dst:11 ());
  Sim.run sim;
  check Alcotest.int "cross-rack delivery" 1 !got

let test_leaf_spine_same_rack () =
  let sim, topo = leaf_spine () in
  let got = ref 0 in
  Net.register topo.Topology.net ~host:1 ~flow:6 (fun _ -> incr got);
  Net.send topo.Topology.net
    (mk_pkt ~flow:6 ~src:0 ~dst:1 ());
  Sim.run sim;
  check Alcotest.int "same-rack delivery" 1 !got

let test_ecmp_consistent_per_flow () =
  (* the spine chosen for a flow never changes: no reordering *)
  let h1 = Topology.ecmp_hash 1234 4 and h2 = Topology.ecmp_hash 1234 4 in
  check Alcotest.int "stable hash" h1 h2;
  (* and hashing spreads across spines *)
  let seen = Array.make 4 false in
  for f = 0 to 199 do seen.(Topology.ecmp_hash f 4) <- true done;
  check Alcotest.bool "all spines used" true (Array.for_all Fun.id seen)

let test_per_packet_spray_spreads () =
  (* a single flow's packets must traverse multiple spines *)
  let sim = Sim.create () in
  let topo =
    Topology.leaf_spine ~routing:Topology.Per_packet ~sim
      ~hosts_per_leaf:4 ~n_leaf:3 ~n_spine:2
      ~edge_rate:(Units.gbps 10) ~core_rate:(Units.gbps 40)
      ~edge_delay:(Units.us 1) ~core_delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 200)) ()
  in
  let got = ref 0 in
  Net.register topo.Topology.net ~host:11 ~flow:5 (fun _ -> incr got);
  for seq = 0 to 63 do
    Net.send topo.Topology.net
      (mk_pkt ~seq ~flow:5 ~dst:11 ())
  done;
  Sim.run sim;
  check Alcotest.int "all sprayed packets delivered" 64 !got;
  (* both spine downlinks towards leaf 2 must have carried traffic *)
  let spine_tx s =
    (Net.port topo.Topology.net (12 + 3 + s) 2).Net.tx_bytes
  in
  check Alcotest.bool "both spines used" true
    (spine_tx 0 > 0 && spine_tx 1 > 0)

let test_flowlet_no_mid_burst_rehash () =
  (* packets of one back-to-back burst must all take the same spine *)
  let sim = Sim.create () in
  let topo =
    Topology.leaf_spine
      ~routing:(Topology.Flowlet { gap = Units.us 100 }) ~sim
      ~hosts_per_leaf:4 ~n_leaf:3 ~n_spine:2
      ~edge_rate:(Units.gbps 10) ~core_rate:(Units.gbps 40)
      ~edge_delay:(Units.us 1) ~core_delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.mb 1)) ()
  in
  let seqs = ref [] in
  Net.register topo.Topology.net ~host:11 ~flow:6 (fun p ->
      seqs := p.Packet.seq :: !seqs);
  for seq = 0 to 31 do
    Net.send topo.Topology.net
      (mk_pkt ~seq ~flow:6 ~dst:11 ())
  done;
  Sim.run sim;
  (* one spine, FIFO queues: in-order delivery proves no mid-burst
     path change *)
  check (Alcotest.list Alcotest.int) "in-order (single flowlet)"
    (List.init 32 Fun.id) (List.rev !seqs)

let test_all_to_all_leaf_spine_traffic () =
  let sim, topo = leaf_spine () in
  let n = Array.length topo.Topology.hosts in
  let expected = ref 0 and got = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let flow = (src * n) + dst in
        incr expected;
        Net.register topo.Topology.net ~host:dst ~flow (fun _ -> incr got);
        Net.send topo.Topology.net (mk_pkt ~flow ~src ~dst ())
      end
    done
  done;
  Sim.run sim;
  check Alcotest.int "every pair delivered" !expected !got

let suite =
  [ Alcotest.test_case "packet: wire sizes" `Quick test_packet_sizes;
    Alcotest.test_case "packet: segmentation" `Quick test_segmentation;
    QCheck_alcotest.to_alcotest prop_pool_invariants;
    Alcotest.test_case "packet pool: debug-mode ownership checks"
      `Quick test_pool_debug_checks;
    QCheck_alcotest.to_alcotest prop_segment_payloads_sum;
    Alcotest.test_case "queue: strict priority" `Quick
      test_strict_priority_order;
    Alcotest.test_case "queue: fifo within priority" `Quick
      test_fifo_within_priority;
    Alcotest.test_case "queue: drop tail" `Quick test_drop_tail;
    Alcotest.test_case "queue: ecn bands" `Quick test_ecn_marking_bands;
    Alcotest.test_case "queue: ecn needs capability" `Quick
      test_no_mark_without_capability;
    Alcotest.test_case "queue: ndp trimming" `Quick test_trimming;
    Alcotest.test_case "queue: aeolus selective drop" `Quick
      test_selective_drop;
    Alcotest.test_case "queue: rc3 lp buffer cap" `Quick test_lp_buffer_cap;
    Alcotest.test_case "queue: dynamic threshold" `Quick
      test_dynamic_threshold;
    QCheck_alcotest.to_alcotest prop_queue_byte_accounting;
    QCheck_alcotest.to_alcotest prop_queue_matches_reference;
    Alcotest.test_case "net: star delivery" `Quick test_star_delivery;
    Alcotest.test_case "net: serialization timing" `Quick
      test_serialization_timing;
    Alcotest.test_case "net: undeliverable counted" `Quick
      test_undeliverable_counted;
    Alcotest.test_case "net: delivery table" `Quick test_delivery_table;
    Alcotest.test_case "net: send refuses copies and stale packets" `Quick
      test_send_refuses_foreign_packets;
    Alcotest.test_case "topo: leaf-spine shape" `Quick test_leaf_spine_shape;
    Alcotest.test_case "topo: cross-rack" `Quick test_leaf_spine_cross_rack;
    Alcotest.test_case "topo: same-rack" `Quick test_leaf_spine_same_rack;
    Alcotest.test_case "topo: ecmp" `Quick test_ecmp_consistent_per_flow;
    Alcotest.test_case "topo: per-packet spraying" `Quick
      test_per_packet_spray_spreads;
    Alcotest.test_case "topo: flowlet burst integrity" `Quick
      test_flowlet_no_mid_burst_rehash;
    Alcotest.test_case "topo: all-to-all delivery" `Quick
      test_all_to_all_leaf_spine_traffic ]
