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
   aliasing), a recycled record comes back with every mutable field
   reset even after the previous owner dirtied it, and releasing a
   released packet raises. *)
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
              | p :: rest ->
                Packet.release p;
                (match Packet.release p with
                 | () -> failwith "double release accepted"
                 | exception Invalid_argument _ -> ());
                live := rest
              | [] -> ())
         ops;
       List.iter Packet.release !live;
       true)

(* Ownership bugs fail loudly in every run, with no setting: releasing
   a packet twice, a copy, or a record from before [Packet.reset]
   raises, and a released record is poisoned. *)
let test_pool_ownership_checks () =
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  let p = Packet.make ~flow:1 ~src:0 ~dst:1 Packet.Data in
  check Alcotest.bool "a copy is not current" false
    (Packet.is_current { p with Packet.seq = 5 });
  check Alcotest.bool "releasing a copy raises" true
    (raises (fun () -> Packet.release { p with Packet.seq = 5 }));
  check Alcotest.bool "made packet is current" true (Packet.is_current p);
  Packet.release p;
  check Alcotest.bool "released packet is not current" false
    (Packet.is_current p);
  check Alcotest.bool "header words poisoned" true
    (p.Packet.hw0 = min_int && p.Packet.hw1 = min_int
     && p.Packet.hw2 = min_int && p.Packet.hw3 = min_int);
  check Alcotest.bool "double release raises" true
    (raises (fun () -> Packet.release p));
  (* the poisoned record is recycled with a fresh identity *)
  let q = Packet.make ~flow:2 ~src:0 ~dst:1 Packet.Data in
  check Alcotest.bool "recycled record" true (p == q && Packet.is_current q);
  check Alcotest.int "recycled with fresh identity" 2 q.Packet.flow;
  Packet.reset ();
  check Alcotest.bool "releasing a record from before the reset raises"
    true (raises (fun () -> Packet.release q));
  check Alcotest.int "nothing freed" 0 (Packet.pool_size ())

(* The segments the transports send, [Flow.seg_payload] of each. *)
let prop_segment_payloads_sum =
  QCheck.Test.make ~name:"segment payloads sum to the flow size"
    ~count:300
    QCheck.(int_range 1 5_000_000)
    (fun flow_bytes ->
       let module Flow = Ppt_transport.Flow in
       let f = Flow.create ~id:0 ~src:0 ~dst:1 ~size:flow_bytes ~start:0 in
       let total = ref 0 in
       for seq = 0 to f.Flow.nseg - 1 do
         let p = Flow.seg_payload f seq in
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
  check Alcotest.int "high first" 1
    (Prio_queue.dequeue_or_dummy q).Packet.prio;
  check Alcotest.int "then low" 5
    (Prio_queue.dequeue_or_dummy q).Packet.prio;
  check Alcotest.bool "then empty" true
    (Prio_queue.dequeue_or_dummy q == Packet.dummy)

let test_fifo_within_priority () =
  let q = Prio_queue.create (qcfg ()) in
  let a = mk_pkt ~seq:1 () and b = mk_pkt ~seq:2 () in
  ignore (Prio_queue.enqueue q a);
  ignore (Prio_queue.enqueue q b);
  check Alcotest.int "fifo" 1 (Prio_queue.dequeue_or_dummy q).Packet.seq

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

(* An entry keeps the wire size in 12 bits, so a larger packet is
   refused before the queue changes. *)
let test_enqueue_refuses_oversize () =
  let q = Prio_queue.create (qcfg ~buffer:100_000 ()) in
  ignore (Prio_queue.enqueue q (mk_pkt ()));
  let big = mk_pkt () in
  big.Packet.wire <- 4096;
  check Alcotest.bool "wire 4096 refused" true
    (match Prio_queue.enqueue q big with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check Alcotest.int "bytes unchanged" 1040 (Prio_queue.bytes q);
  check Alcotest.int "queue bytes unchanged" 1040
    (Prio_queue.queue_bytes q 0);
  check Alcotest.int "enqueues unchanged" 1 (Prio_queue.enqueues q);
  check Alcotest.int "no drop counted" 0 (Prio_queue.drops q);
  check Alcotest.int "no drop bytes" 0 (Prio_queue.drop_bytes q);
  big.Packet.wire <- 4095;
  check Alcotest.bool "wire 4095 admitted" true
    (Prio_queue.enqueue q big = Prio_queue.Enqueued);
  let e = Prio_queue.pop q in
  check Alcotest.int "first entry's wire" 1040 (Prio_queue.entry_wire e);
  let e = Prio_queue.pop q in
  check Alcotest.int "largest entry's id" big.Packet.id
    (Prio_queue.entry_id e);
  check Alcotest.int "largest entry's wire" 4095 (Prio_queue.entry_wire e);
  check Alcotest.int "then empty" (-1) (Prio_queue.pop q)

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
         let p = Prio_queue.dequeue_or_dummy q in
         if p != Packet.dummy then begin
           sum := !sum + p.Packet.wire; drain ()
         end
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

(* Drain through [pop]: the entry names its packet by id (each replayed
   packet has its own [seq], so matching the reference's [seq] means
   the id is the model packet's) and carries the wire size it was
   queued at, which must be the packet's. *)
let pop_entry q =
  let e = Prio_queue.pop q in
  if e < 0 then None
  else begin
    let p = Packet.of_id (Prio_queue.entry_id e) in
    if Prio_queue.entry_wire e <> p.Packet.wire then
      failwith "entry wire differs from the packet's";
    Some p
  end

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
            let q_pop = Prio_queue.create cfg in
            let r = Ref_pq.create cfg in
            let t_new =
              replay
                ~enqueue:(Prio_queue.enqueue q)
                ~dequeue:(fun () ->
                    let p = Prio_queue.dequeue_or_dummy q in
                    if p == Packet.dummy then None else Some p)
                ops
            in
            let t_pop =
              replay ~enqueue:(Prio_queue.enqueue q_pop)
                ~dequeue:(fun () -> pop_entry q_pop) ops
            in
            let t_ref =
              replay ~enqueue:(Ref_pq.enqueue r)
                ~dequeue:(fun () -> Ref_pq.dequeue r)
                ops
            in
            t_new = t_ref && t_pop = t_ref
            && Prio_queue.bytes q_pop = r.Ref_pq.bytes
            && Prio_queue.lp_bytes q_pop = r.Ref_pq.lp_bytes
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

(* Chunk boundaries: three queues share one pool, and every band's
   backlog crosses several chunks, drains to empty and fills again.
   Entries go in through [enqueue_as] with ids of the test's own, so
   each pop is checked against a model of eight FIFO lists per queue.
   A round is the random ops, then round-robin pushes that take every
   band past three chunks (so the queues' and bands' chunks interleave
   in the pool), then a full drain. Replaying the round must stop growing
   the pool: in the first round each band takes its first chunk when
   it first gets an entry, and from the second each starts with the
   chunk it kept, so rounds 2 to 4 hold the same chunks at each step. *)
let prop_queue_chunks_shared_pool =
  QCheck.Test.make
    ~name:"chunked queues sharing a pool match a FIFO model" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (quad (int_bound 2) (int_bound 7) (int_range (-90) 120)
           (int_range 1 4095)))
    (fun ops ->
       let pool = Prio_queue.pool () in
       let qs =
         Array.init 3 (fun _ ->
             let q = Prio_queue.create (qcfg ~buffer:(1 lsl 40) ()) in
             Prio_queue.share_pool q pool;
             q)
       in
       let model =
         Array.init 3 (fun _ -> Array.init 8 (fun _ -> Queue.create ()))
       in
       let pkt = mk_pkt () in
       let next_id = ref 0 in
       let fail fmt = Printf.ksprintf failwith fmt in
       let audit q =
         match Prio_queue.check qs.(q) with
         | Ok () -> ()
         | Error what -> fail "queue %d: %s" q what
       in
       let push q prio wire =
         pkt.Packet.prio <- prio;
         pkt.Packet.wire <- wire;
         incr next_id;
         ignore
           (Prio_queue.enqueue_as qs.(q) pkt ~id:!next_id
            : Prio_queue.verdict);
         Queue.push (!next_id, wire) model.(q).(prio)
       in
       let pop q =
         let e = Prio_queue.pop qs.(q) in
         match
           Array.find_opt (fun b -> not (Queue.is_empty b)) model.(q)
         with
         | None -> if e <> -1 then fail "queue %d: popped from empty" q
         | Some band ->
           let id, wire = Queue.pop band in
           if e < 0 || Prio_queue.entry_id e <> id
              || Prio_queue.entry_wire e <> wire
           then
             fail "queue %d: popped %d, expected id %d wire %d" q e id wire
       in
       let round () =
         List.iter
           (fun (q, prio, n, wire) ->
              if n >= 0 then for _ = 1 to n do push q prio wire done
              else for _ = 1 to -n do pop q done;
              audit q)
           ops;
         for k = 0 to (3 * Prio_queue.chunk_entries) + 7 do
           for prio = 0 to 7 do
             for q = 0 to 2 do push q prio (64 + k) done
           done
         done;
         Array.iteri
           (fun q bands ->
              audit q;
              Array.iteri
                (fun prio b ->
                   if Queue.length b <> Prio_queue.length qs.(q) prio then
                     fail "queue %d P%d: %d entries, model %d" q prio
                       (Prio_queue.length qs.(q) prio) (Queue.length b))
                bands)
           model;
         for q = 0 to 2 do
           while Array.exists (fun b -> not (Queue.is_empty b)) model.(q) do
             pop q
           done;
           pop q;
           audit q;
           if Prio_queue.bytes qs.(q) <> 0 then fail "queue %d: bytes left" q;
           (* drained, each band keeps one chunk *)
           if Prio_queue.storage_words qs.(q)
              <> Prio_queue.bands_held qs.(q) * Prio_queue.chunk_words
           then fail "queue %d: a drained band holds more than a chunk" q
         done;
         Prio_queue.pool_chunks pool
       in
       let first = round () in
       let second = round () in
       let later = [ round (); round () ] in
       first <= second && List.for_all (( = ) second) later
       && second <= first + (3 * Prio_queue.n_prios))

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
   that now belongs to another packet or to none. A released packet is
   refused too: the next [Packet.make] hands its id to another flow. *)
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
  let r = mk_pkt () in
  Packet.release r;
  check Alcotest.bool "a released packet is refused" true (refused r);
  check Alcotest.bool "a current packet is sent" false (refused q);
  Sim.run sim;
  check Alcotest.int "only the current packet arrived" 1 !got

(* --- parked packets ---------------------------------------------------

   A host NIC holding a deep backlog parks the packets that join it:
   their fields wait in a descriptor, not a record, and a record is
   acquired again when they reach the head of the queue. Nothing a
   receiver sees may change but the record's id. *)

(* Every field a packet carries but its arena id. *)
let fields (p : Packet.t) =
  ( (p.uid, p.flow, p.src, p.dst, p.seq, p.payload, p.wire, p.prio),
    (p.kind, p.loop, p.ecn_capable, p.ecn_ce, p.trimmed, p.sel_drop),
    (p.hw0, p.hw1, p.hw2, p.hw3, p.hflag),
    List.init (Packet.tel_count p) (fun i ->
        (Packet.tel_qlen p i, Packet.tel_tx_bytes p i, Packet.tel_ts p i,
         Packet.tel_rate p i)) )

let backlog_flows = 7

(* Host 0 of a 10G star, whose switch never queues more than a few
   packets, sends to host 1; every flow's packets are collected at
   host 1 in arrival order. *)
let backlog_star () =
  Packet.reset ();
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:2 ~rate:(Units.gbps 10) ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.mb 1)) ()
  in
  let got = ref [] in
  for flow = 0 to backlog_flows - 1 do
    Net.register topo.Topology.net ~host:1 ~flow (fun p ->
        got := fields p :: !got)
  done;
  (sim, topo, got)

(* Packet [i] of a backlog: data in both bands, acks and control, with
   every flag and the first header word varied. *)
let backlog_packet i =
  let kind =
    match i mod 10 with 3 -> Packet.Ack | 7 -> Packet.Ctrl | _ -> Packet.Data
  in
  let payload = if kind = Packet.Data then 1000 + (i * 37 mod 461) else 0 in
  let p =
    Packet.make ~seq:i ~payload ~prio:(if i mod 3 = 0 then 1 else 5)
      ~loop:(if i mod 2 = 0 then Packet.L else Packet.H)
      ~ecn_capable:(i mod 4 = 0) ~sel_drop:(i mod 5 = 0)
      ~flow:(i mod backlog_flows) ~src:0 ~dst:1 kind
  in
  p.Packet.ecn_ce <- i mod 8 = 0;
  p.Packet.trimmed <- i mod 11 = 0;
  p.Packet.hw0 <- i * 1_000_003;
  p.Packet.hflag <- i mod 6 = 0;
  p

(* Send packets [lo, hi) of the backlog, each made just before it is
   sent; their fields, in send order. *)
let send_backlog net ~lo ~hi =
  List.init (hi - lo) (fun k ->
      let p = backlog_packet (lo + k) in
      let f = fields p in
      Net.send net p;
      f)

(* The order a strict-priority NIC sends a backlog queued at once: the
   first packet (on the wire before the rest arrive), then the rest by
   queue, each queue in send order. *)
let strict_priority_order = function
  | [] -> []
  | first :: rest ->
    let queue ((_, _, _, _, _, _, _, prio), _, _, _) =
      Int.min prio (Prio_queue.n_prios - 1)
    in
    first :: List.stable_sort (fun a b -> compare (queue a) (queue b)) rest

(* Packets made = delivered + undeliverable + queue drops + fault kills
   + records in use + parked descriptors. *)
let check_conserved net =
  check Alcotest.int "every packet made is accounted for" (Packet.made ())
    (Net.delivered net + Net.undeliverable net + Net.total_drops net
     + Net.total_fault_drops net
     + (Packet.records () - Packet.pool_size ()) + Net.parked net)

let test_backlog_parked_intact () =
  let sim, topo, got = backlog_star () in
  let net = topo.Topology.net in
  let n = 5_000 in
  let sent = send_backlog net ~lo:0 ~hi:n in
  check Alcotest.bool
    (Printf.sprintf "most of the backlog is parked (%d)" (Net.parked net))
    true (Net.parked net > n - 400);
  check_conserved net;
  Sim.run sim;
  check Alcotest.int "all delivered" n (Net.delivered net);
  check Alcotest.bool "same order, every field equal" true
    (List.rev !got = strict_priority_order sent);
  check Alcotest.int "no descriptor left" 0 (Net.parked net);
  check Alcotest.bool
    (Printf.sprintf "%d records for %d packets" (Packet.records ()) n)
    true (Packet.records () <= 400);
  check_conserved net

(* Telemetry, header words past the first and an out-of-range priority
   do not fit a descriptor: those packets keep their record in the
   backlog and cross it as they were. *)
let test_backlog_keeps_unparkable () =
  let sim, topo, got = backlog_star () in
  let net = topo.Topology.net in
  let sent = send_backlog net ~lo:0 ~hi:1_000 in
  let parked = Net.parked net in
  let odd i =
    let p = backlog_packet i in
    p.Packet.prio <- 1;
    p
  in
  let tel = odd 1_000 in
  Packet.tel_push tel ~qlen:1 ~tx_bytes:2 ~ts:3 ~rate:4;
  Packet.tel_push tel ~qlen:5 ~tx_bytes:6 ~ts:7 ~rate:8;
  let words = odd 1_001 in
  words.Packet.hw1 <- 11;
  words.Packet.hw2 <- -12;
  words.Packet.hw3 <- 13;
  let prio = odd 1_002 in
  prio.Packet.prio <- 9;
  let specials = List.map fields [ tel; words; prio ] in
  List.iter (Net.send net) [ tel; words; prio ];
  check Alcotest.int "none of the three parked" parked (Net.parked net);
  let after = send_backlog net ~lo:1_003 ~hi:1_013 in
  check Alcotest.int "the packets after them park" (parked + 10)
    (Net.parked net);
  Sim.run sim;
  let arrived = List.rev !got in
  check Alcotest.bool "each arrives with every field" true
    (List.for_all (fun f -> List.mem f arrived) specials);
  check Alcotest.bool "same order, every field equal" true
    (arrived = strict_priority_order (sent @ specials @ after));
  check_conserved net

(* A downed host link, and a paused host, stop the NIC with its
   backlog parked; packets sent while it is down are discarded, and
   every parked packet still arrives unchanged once it is up again. *)
let test_backlog_survives_down_and_pause () =
  let sim, topo, got = backlog_star () in
  let net = topo.Topology.net in
  let spec =
    match Ppt_faults.Fault_spec.of_string
            "down@1ms-2ms:link:0; pause@3ms-4ms:host:0" with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  Ppt_faults.Injector.install ~net ~hosts:topo.Topology.hosts
    ~to_host_port:topo.Topology.to_host_port ~seed:1 spec;
  let n = 5_000 in
  let sent = send_backlog net ~lo:0 ~hi:n in
  let parked_when_stopped = ref [] in
  let sample () = parked_when_stopped := Net.parked net :: !parked_when_stopped in
  ignore (Sim.schedule_at sim (Units.us 1_500) (fun () ->
      sample ();
      ignore (send_backlog net ~lo:n ~hi:(n + 3))));
  ignore (Sim.schedule_at sim (Units.us 3_500) sample);
  Sim.run sim;
  check Alcotest.bool "backlog parked while the NIC is stopped" true
    (List.for_all (fun k -> k > 1_000) !parked_when_stopped);
  check Alcotest.int "sent while down: discarded" 3
    (Net.total_fault_drops net);
  check Alcotest.bool "same order, every field equal" true
    (List.rev !got = strict_priority_order sent);
  check Alcotest.bool "the NIC stopped past the last window" true
    (Sim.now sim > Units.ms 4);
  check_conserved net

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

let star3 () =
  let sim = Sim.create () in
  let topo =
    Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 10)
      ~delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 100)) ()
  in
  (sim, topo.Topology.net)

(* The delivery table against a [Hashtbl] reference keyed by (flow,
   host). Ops: register a fresh handler, unregister, send a packet
   (held on the wire until the next run), run. Ids are [lo + 64 * hi],
   so they clash modulo 64 and 128; registrations also try a negative
   id, the switch (node 3) and a node outside the star. A packet meets
   the table as it is when it arrives, so a packet for a flow that
   finished meanwhile must count as undeliverable, even when a newer
   flow holds its pair by then. The table's size stays within twice the
   widest spread of ids live at one time. *)
type table_op =
  | Reg of int * int
  | Unreg of int * int
  | Send of int * int * int
  | Run

let table_op_gen =
  let open QCheck.Gen in
  let id = map2 (fun lo hi -> lo + (64 * hi)) (int_bound 3) (int_bound 5) in
  let host = int_bound 2 in
  frequency
    [ (4, map2 (fun f h -> Reg (f, h)) id host);
      (1, map (fun f -> Reg (f, 3)) id);
      (1, map (fun h -> Reg (-1, h)) host);
      (1, map (fun f -> Reg (f, 4)) id);
      (3, map2 (fun f h -> Unreg (f, h)) id host);
      (4, map3 (fun f s d -> Send (f, s, (s + 1 + d) mod 3)) id host
           (int_bound 1));
      (2, return Run) ]

let show_table_op = function
  | Reg (f, h) -> Printf.sprintf "reg %d@%d" f h
  | Unreg (f, h) -> Printf.sprintf "unreg %d@%d" f h
  | Send (f, s, d) -> Printf.sprintf "send %d %d->%d" f s d
  | Run -> "run"

let prop_delivery_table_matches_reference =
  QCheck.Test.make ~name:"delivery table matches a Hashtbl reference"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
       QCheck.Gen.(list_size (int_range 1 120) table_op_gen))
    (fun ops ->
       let sim, net = star3 () in
       let model = Hashtbl.create 16 in    (* (flow, host) -> tag *)
       let got = Hashtbl.create 16 and want = Hashtbl.create 16 in
       let bump tbl tag =
         Hashtbl.replace tbl tag
           (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tag))
       in
       let undeliverable = ref 0 and in_flight = ref [] in
       let next_tag = ref 0 and widest = ref 0 in
       let hosts_of flow =
         List.filter (fun h -> Hashtbl.mem model (flow, h)) [ 0; 1; 2 ]
       in
       let run () =
         List.iter
           (fun (flow, dst) ->
              match Hashtbl.find_opt model (flow, dst) with
              | Some tag -> bump want tag
              | None -> incr undeliverable)
           !in_flight;
         in_flight := [];
         Sim.run sim
       in
       let step = function
         | Reg (flow, host) ->
           let ok =
             flow >= 0 && host <= 2
             && (Hashtbl.mem model (flow, host)
                 || List.length (hosts_of flow) < 2)
           in
           let tag = !next_tag in
           incr next_tag;
           (match Net.register net ~host ~flow (fun _ -> bump got tag) with
            | () ->
              if not ok then QCheck.Test.fail_reportf "accepted %d@%d" flow host;
              Hashtbl.replace model (flow, host) tag
            | exception Invalid_argument _ ->
              if ok then QCheck.Test.fail_reportf "refused %d@%d" flow host)
         | Unreg (flow, host) ->
           Net.unregister net ~host ~flow;
           Hashtbl.remove model (flow, host)
         | Send (flow, src, dst) ->
           Net.send net (mk_pkt ~flow ~src ~dst ());
           in_flight := (flow, dst) :: !in_flight
         | Run -> run ()
       in
       List.iter
         (fun op ->
            step op;
            let live = Hashtbl.fold (fun (f, _) _ acc -> f :: acc) model [] in
            (match live with
             | [] -> ()
             | f :: _ ->
               let lo = List.fold_left min f live
               and hi = List.fold_left max f live in
               widest := max !widest (hi - lo));
            if Net.delivery_pairs net > max 32 (2 * !widest) then
              QCheck.Test.fail_reportf "%d pairs for a spread of %d"
                (Net.delivery_pairs net) !widest)
         (ops @ [ Run ]);
       let counts tbl =
         List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
       in
       counts got = counts want && Net.undeliverable net = !undeliverable
       && Net.delivered net = List.fold_left (fun a (_, n) -> a + n) 0
            (counts want))

(* One long-lived flow while 3,000 later ids churn, at most two live at
   a time besides it. Each churned flow's last packet is still on the
   wire when it finishes and the next flow registers: it counts as
   undeliverable and reaches no one. The table grows only to separate
   the long-lived id from the churned ones; without the long-lived flow
   it stays at its starting size. *)
let test_delivery_table_churn () =
  let churn ~long_lived =
    let sim, net = star3 () in
    let long_got = ref 0 and got = ref 0 and stray = ref 0 in
    if long_lived then
      Net.register net ~host:1 ~flow:0 (fun _ -> incr long_got);
    for flow = 1 to 3_000 do
      Net.register net ~host:2 ~flow (fun _ -> incr stray);
      Net.register net ~host:0 ~flow (fun _ -> incr got);
      Net.send net (mk_pkt ~flow ~src:2 ~dst:0 ());
      if long_lived then Net.send net (mk_pkt ~flow:0 ~src:0 ~dst:1 ());
      Sim.run sim;
      Net.send net (mk_pkt ~flow ~src:2 ~dst:0 ());
      Net.unregister net ~host:0 ~flow;
      Net.unregister net ~host:2 ~flow
    done;
    Sim.run sim;
    check Alcotest.int "every churned flow got its packet" 3_000 !got;
    check Alcotest.int "no packet reached a source" 0 !stray;
    check Alcotest.int "late packets are undeliverable" 3_000
      (Net.undeliverable net);
    (Net.delivery_pairs net, !long_got)
  in
  let pairs, long_got = churn ~long_lived:true in
  check Alcotest.int "the long-lived flow got every packet" 3_000 long_got;
  check Alcotest.int "pairs: first power of two above the spread" 4_096
    pairs;
  let pairs, _ = churn ~long_lived:false in
  check Alcotest.int "pairs without a long-lived flow" 32 pairs

let leaf_spine () =
  let sim = Sim.create () in
  let topo =
    Topology.leaf_spine ~sim ~hosts_per_leaf:4 ~n_leaf:3 ~n_spine:2
      ~edge_rate:(Units.gbps 10) ~core_rate:(Units.gbps 40)
      ~edge_delay:(Units.us 1) ~core_delay:(Units.us 1)
      ~qcfg:(Prio_queue.default_config ~buffer_bytes:(Units.kb 200)) ()
  in
  (sim, topo)

(* The transmit loop counts the wire size its queue entry carries;
   the trace's dequeue events read the packet record. On an all-to-all
   burst through every tier, both must agree port by port. *)
let test_tx_bytes_match_dequeues () =
  let sim, topo = leaf_spine () in
  let net = topo.Topology.net in
  let n = Array.length topo.Topology.hosts in
  let ring = Ppt_obs.Trace.Ring.create ~capacity:(1 lsl 16) () in
  Ppt_obs.Trace.with_sink (Ppt_obs.Trace.Ring.sink ring) (fun () ->
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            for seq = 0 to 3 do
              Net.send net
                (mk_pkt ~seq ~payload:(200 * (seq + 1)) ~flow:((src * n) + dst)
                   ~src ~dst ())
            done
        done
      done;
      Sim.run sim);
  check Alcotest.int "ring kept every event" 0
    (Ppt_obs.Trace.Ring.dropped ring);
  let dequeued = Hashtbl.create 64 in
  Ppt_obs.Trace.Ring.iter ring (fun _ ev ->
      match ev with
      | Ppt_obs.Event.Dequeue { node; port; size; _ } ->
        let k = (node, port) in
        Hashtbl.replace dequeued k
          (size + Option.value ~default:0 (Hashtbl.find_opt dequeued k))
      | _ -> ());
  check Alcotest.bool "packets were dequeued" true
    (Hashtbl.length dequeued > 0);
  for nid = 0 to Net.n_nodes net - 1 do
    Array.iter
      (fun (p : Net.port) ->
         check Alcotest.int
           (Printf.sprintf "tx_bytes of port (%d,%d)" nid p.Net.pix)
           (Option.value ~default:0
              (Hashtbl.find_opt dequeued (nid, p.Net.pix)))
           p.Net.tx_bytes)
      (Net.node net nid).Net.ports
  done

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

(* Flowlet memory follows live flowlets: after a 2,000-flow web-search
   run on the oversubscribed fabric, each leaf keeps about the flows
   that sent recently. Kept forever, the tables end at 785-791 entries
   per leaf; the run's counts below were recorded with those tables,
   so dropping idle entries moved no packet. *)
let test_flowlet_table_follows_live_flows () =
  let open Ppt_harness in
  let cfg =
    { (Config.oversub ~n_flows:2_000 ()) with
      Config.routing = Topology.Flowlet { gap = Units.us 50 } }
  in
  let net = ref None in
  let r =
    Runner.run ~observe:(fun _ topo -> net := Some topo.Topology.net)
      cfg Schemes.dctcp
  in
  check Alcotest.int "every flow completes" 2_000 r.Runner.completed;
  check Alcotest.int "events" 31_468_967 r.Runner.events;
  check Alcotest.int "drops" 39_362 r.Runner.drops;
  check Alcotest.int "marks" 227_273 r.Runner.marks;
  let net = Option.get !net in
  let sizes =
    List.filter_map
      (fun i ->
         match (Net.node net i).Net.fwd.Net.sel with
         | Net.Sel_flowlet { tbl; _ } -> Some (Hashtbl.length tbl)
         | Net.Sel_flow | Net.Sel_packet -> None)
      (List.init (Net.n_nodes net) Fun.id)
  in
  check Alcotest.int "one table per leaf" 4 (List.length sizes);
  List.iter
    (fun n ->
       check Alcotest.bool (Printf.sprintf "%d entries < 200" n) true
         (n < 200))
    sizes

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
    Alcotest.test_case "packet pool: ownership checks always on"
      `Quick test_pool_ownership_checks;
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
    Alcotest.test_case "queue: oversize wire refused" `Quick
      test_enqueue_refuses_oversize;
    QCheck_alcotest.to_alcotest prop_queue_byte_accounting;
    QCheck_alcotest.to_alcotest prop_queue_matches_reference;
    QCheck_alcotest.to_alcotest prop_queue_chunks_shared_pool;
    Alcotest.test_case "net: star delivery" `Quick test_star_delivery;
    Alcotest.test_case "net: serialization timing" `Quick
      test_serialization_timing;
    Alcotest.test_case "net: undeliverable counted" `Quick
      test_undeliverable_counted;
    Alcotest.test_case "net: delivery table" `Quick test_delivery_table;
    QCheck_alcotest.to_alcotest prop_delivery_table_matches_reference;
    Alcotest.test_case "net: delivery table follows live flows" `Quick
      test_delivery_table_churn;
    Alcotest.test_case "net: a deep host backlog parks intact" `Quick
      test_backlog_parked_intact;
    Alcotest.test_case "net: packets a descriptor cannot hold keep records"
      `Quick test_backlog_keeps_unparkable;
    Alcotest.test_case "net: parked packets survive down and pause" `Quick
      test_backlog_survives_down_and_pause;
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
    Alcotest.test_case "topo: flowlet table follows live flows" `Quick
      test_flowlet_table_follows_live_flows;
    Alcotest.test_case "topo: all-to-all delivery" `Quick
      test_all_to_all_leaf_spine_traffic;
    Alcotest.test_case "net: tx bytes match traced dequeues" `Quick
      test_tx_bytes_match_dequeues ]
