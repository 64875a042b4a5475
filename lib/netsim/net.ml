(* The network fabric: nodes (hosts and switches) connected by
   unidirectional ports, each with a strict-priority queue discipline
   and a serialization + propagation model.

   A packet injected at its source host is queued on the host NIC port,
   forwarded switch by switch (each switch reads its forwarding table),
   and finally delivered to the endpoint handler registered for
   (destination host, flow id). *)

open Ppt_engine

type port = {
  owner : int;
  pix : int;
  rate : Units.rate;
  delay : Units.time;
  mutable peer : int;               (* node id at the far end *)
  q : Prio_queue.t;
  mutable busy : bool;
  mutable tx_bytes : int;           (* cumulative wire bytes sent *)
  mutable gix : int;
  (* index in the net's [ports], installed by [create]: the argument
     of the port's end-of-serialization event *)
  mutable recv_fire : Packet.t -> unit;
  (* far-end arrival continuation, installed by [create]; the net's
     arrival handler calls it *)
  (* Fault-injection state (Ppt_faults). Neutral defaults keep the
     datapath bit-identical when no fault spec is active. *)
  mutable up : bool;                (* false: port stops dequeuing *)
  mutable cur_rate : Units.rate;    (* effective rate (degrade) *)
  mutable extra_delay : Units.time; (* added propagation (degrade) *)
  mutable fault_filter : (Packet.t -> char option) option;
  (* per-packet kill decision at transmit time; [Some reason] loses
     the packet on the wire ('L' random loss, 'C' corruption) *)
  mutable fault_drops : int;        (* packets killed by the filter *)
}

(* Deterministic hash for ECMP candidate selection. *)
let ecmp_hash flow n =
  assert (n > 0);
  ((flow * 0x61C88647) lsr 8) land max_int mod n

(* How a switch picks among ECMP candidates (see [Topology.routing]). *)
type selector =
  | Sel_flow                        (* classic per-flow ECMP *)
  | Sel_packet                      (* per-packet spray (NDP-style) *)
  | Sel_flowlet of { gap : Units.time; tbl : (int, flowlet) Hashtbl.t }

(* Per-flow flowlet memory: candidate index + last-seen time. A mutable
   record (not a tuple in the table) so steady-state flowlet routing
   writes two fields and allocates nothing. *)
and flowlet = { mutable fl_cand : int; mutable fl_last : Units.time }

(* Flat forwarding table of a switch: [base.(dst)] is the egress port
   for [dst], or -1 to select among the [cand] ports (all ECMP
   destinations of a node share one candidate set). Routing a packet is
   an array read plus, on the ECMP path, a hash — no list traversal, no
   closure call, no allocation. *)
type fwd = {
  base : int array;
  cand : int array;
  sel : selector;
}

type node = {
  nid : int;
  is_host : bool;
  ports : port array;
  fwd : fwd;  (* empty on hosts, which never forward *)
}

(* The delivery table is keyed by live flows: every transport
   registers one handler at the flow's source and one at its
   destination, so pair [k = flow land (cap - 1)] holds the flow
   ([dflow.(k)], [-1] when free), and slots [2 * k] and [2 * k + 1]
   hold a host ([-1] when free) and its handler. A flow that finds its
   pair held by another live flow doubles [cap]. Ids are dense and a
   flow's pair is freed when it finishes, so [cap] follows the ids that
   are live at once, not the ids a run will ever use; a delivery is
   three int compares and an array read. *)
type t = {
  sim : Sim.t;
  nodes : node array;
  ports : port array;               (* every port, by [gix] *)
  port_bits : int;                  (* bits of a [gix] *)
  mutable tx_h : Sim.handler;       (* end of serialization, arg [gix] *)
  mutable arr_h : Sim.handler;
  (* far-end arrival; its argument is the packet on the wire and the
     port that sent it, [(id lsl port_bits) lor gix] *)
  mutable dflow : int array;        (* [cap] entries *)
  mutable dhost : int array;        (* [2 * cap] entries *)
  mutable dfn : (Packet.t -> unit) array;
  collect_int : bool;
  mutable delivered : int;
  mutable undeliverable : int;
  mutable park_chunks : int array array;  (* descriptor store, below *)
  mutable park_free : int;          (* first free descriptor, or -1 *)
  mutable park_len : int;           (* descriptors ever taken *)
  mutable parked : int;             (* descriptors holding a packet *)
  pool : Prio_queue.pool;           (* every port's queue chunks *)
}

let make_port ~owner ~pix ~rate ~delay qcfg =
  { owner; pix; rate; delay; peer = -1; q = Prio_queue.create qcfg;
    busy = false; tx_bytes = 0; gix = -1;
    recv_fire = ignore;
    up = true; cur_rate = rate; extra_delay = 0; fault_filter = None;
    fault_drops = 0 }

let no_fwd = { base = [||]; cand = [||]; sel = Sel_flow }
let make_host ~nid port =
  { nid; is_host = true; ports = [| port |]; fwd = no_fwd }

let make_switch ~nid fwd ports = { nid; is_host = false; ports; fwd }

let sim t = t.sim
let node t nid = t.nodes.(nid)
let port t nid pix = t.nodes.(nid).ports.(pix)
let n_nodes t = Array.length t.nodes

(* The delivery-table slot of live [flow] at [host], or -1. *)
let find t ~host ~flow =
  let k = flow land (Array.length t.dflow - 1) in
  if Array.unsafe_get t.dflow k <> flow then -1
  else
    let i = 2 * k in
    if Array.unsafe_get t.dhost i = host then i
    else if Array.unsafe_get t.dhost (i + 1) = host then i + 1
    else -1

(* Double [cap], re-placing every live flow's pair. Flows in distinct
   pairs stay in distinct pairs: equal ids modulo [2 * cap] are equal
   modulo [cap]. *)
let grow t =
  let cap = Array.length t.dflow in
  let cap' = 2 * cap in
  let dflow = Array.make cap' (-1) and dhost = Array.make (2 * cap') (-1)
  and dfn = Array.make (2 * cap') ignore in
  Array.iteri
    (fun k flow ->
       if flow >= 0 then begin
         let k' = flow land (cap' - 1) in
         dflow.(k') <- flow;
         for j = 0 to 1 do
           dhost.((2 * k') + j) <- t.dhost.((2 * k) + j);
           dfn.((2 * k') + j) <- t.dfn.((2 * k) + j)
         done
       end)
    t.dflow;
  t.dflow <- dflow;
  t.dhost <- dhost;
  t.dfn <- dfn

let register t ~host ~flow handler =
  if flow < 0 then invalid_arg "Net.register: flow id out of range";
  if host < 0 || host >= Array.length t.nodes || not t.nodes.(host).is_host
  then invalid_arg "Net.register: not a host of this network";
  let k = ref (flow land (Array.length t.dflow - 1)) in
  while t.dflow.(!k) <> flow && t.dflow.(!k) <> -1 do
    grow t;
    k := flow land (Array.length t.dflow - 1)
  done;
  let k = !k in
  let i = 2 * k in
  let i =
    if t.dflow.(k) = -1 then i
    else if t.dhost.(i) = host then i
    else if t.dhost.(i + 1) = host then i + 1
    else if t.dhost.(i) = -1 then i
    else if t.dhost.(i + 1) = -1 then i + 1
    else invalid_arg "Net.register: flow already has handlers at two hosts"
  in
  t.dflow.(k) <- flow;
  t.dhost.(i) <- host;
  t.dfn.(i) <- handler

let unregister t ~host ~flow =
  let i = find t ~host ~flow in
  if i >= 0 then begin
    t.dhost.(i) <- -1;
    t.dfn.(i) <- ignore;
    let j = i lxor 1 in
    if t.dhost.(j) = -1 then t.dflow.(i / 2) <- -1
  end

let stamp_int t (port : port) (p : Packet.t) =
  if t.collect_int && p.kind = Data then
    Packet.tel_push p ~qlen:(Prio_queue.bytes port.q)
      ~tx_bytes:port.tx_bytes ~ts:(Sim.now t.sim) ~rate:port.rate

(* --- trace emission (Ppt_obs) -------------------------------------

   All queue-lifecycle events are emitted here rather than inside
   [Prio_queue]: the fabric knows the clock and the port identity, and
   keeping the queue discipline trace-free keeps its hot path
   untouched. Every site guards on [!Trace.enabled], so with tracing
   off the datapath pays one load + branch and allocates nothing. *)

module Trace = Ppt_obs.Trace
module Ev = Ppt_obs.Event

let kind_tag : Packet.kind -> char = function
  | Packet.Data -> 'D' | Ack -> 'A' | Grant -> 'G' | Pull -> 'P'
  | Nack -> 'N' | Ctrl -> 'C'

let clamp_prio p = Int.max 0 (Int.min (Prio_queue.n_prios - 1) p)

(* The cold half of a traced enqueue: emit the verdict event, plus an
   [Ecn_mark] when the queue freshly set CE on this packet. *)
let trace_enqueue t (port : port) (p : Packet.t) verdict ~was_ce =
  let ts = Sim.now t.sim in
  let occ = Prio_queue.bytes port.q in
  let node = port.owner and pix = port.pix in
  (* after a trim, [p.prio] already reflects the header's new queue *)
  let prio = clamp_prio p.prio in
  (match verdict with
   | Prio_queue.Enqueued ->
     Trace.emit ts
       (Ev.Enqueue
          { node; port = pix; prio; flow = p.flow; seq = p.seq;
            kind = kind_tag p.kind; size = p.wire; occ })
   | Prio_queue.Trimmed ->
     Trace.emit ts
       (Ev.Trim
          { node; port = pix; prio; flow = p.flow; seq = p.seq;
            cut = p.payload; occ })
   | Prio_queue.Dropped ->
     Trace.emit ts
       (Ev.Drop
          { node; port = pix; prio; flow = p.flow; seq = p.seq;
            kind = kind_tag p.kind; size = p.wire; occ }));
  if p.ecn_ce && not was_ce then
    match Prio_queue.mark_threshold port.q prio with
    | Some threshold ->
      Trace.emit ts
        (Ev.Ecn_mark
           { node; port = pix; prio; flow = p.flow; seq = p.seq; occ;
             threshold })
    | None -> ()

(* Packet sinks. The fabric owns every packet handed to [send]; at each
   terminal point — delivery, queue drop, fault kill, undeliverable —
   it returns the record to the pool. Delivery handlers borrow the
   packet for the duration of the call and must not retain it. A
   delivery counts once its handler returns: while the handler runs,
   the packet is still a record in use (see [parked] for the balance). *)

let deliver t (p : Packet.t) =
  let i = find t ~host:p.dst ~flow:p.flow in
  if i >= 0 then begin
    (Array.unsafe_get t.dfn i) p;
    t.delivered <- t.delivered + 1
  end else t.undeliverable <- t.undeliverable + 1;
  Packet.release p

(* --- parked packets -------------------------------------------------

   A host NIC can hold a deep backlog: PPT's low-priority loop keeps
   segments queued there until spare bandwidth lets them out, tens of
   thousands at once in fig12's fabric. A packet that joins a host port
   already holding [park_depth] bytes is queued as usual (same
   admission, marks, trace event and counters) and then parked: its
   fields go into a descriptor of five ints in the net's store, the
   queue entry holds the tagged descriptor index instead of its id, and
   its record is released. When the entry reaches the head of the
   queue, [unpark] acquires a record again under the packet's uid, so
   nothing downstream can tell it was parked.

   Descriptor [d] is the five words from [dwords * (d land chunk_mask)]
   of chunk [d lsr chunk_bits]: uid, flow, seq, hw0, and the other
   fields packed into one int (below). A free descriptor's first word
   chains the free list. *)

(* 256 KB is ~52 us of a 40G NIC's line time. Switch-bound backlogs
   (incast's 14-to-1 port, a host's share of a congested uplink) stay
   below it, so only packets that would wait long are parked. *)
let park_depth = Units.kb 256

let park_tag = 1 lsl 49             (* above any packet id *)
let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1
let dwords = 5

(* The packed word: src and dst in [node_bits] bits each, payload and
   wire in 12, prio and kind in 3, then one bit per flag. *)
let node_bits = 13
let node_mask = (1 lsl node_bits) - 1
let b_dst = node_bits
let b_payload = 2 * node_bits
let b_wire = b_payload + 12
let b_prio = b_wire + 12
let b_kind = b_prio + 3
let b_loop = b_kind + 3
let b_ecn_capable = b_loop + 1
let b_ecn_ce = b_loop + 2
let b_trimmed = b_loop + 3
let b_sel_drop = b_loop + 4
let b_hflag = b_loop + 5

let kind_code : Packet.kind -> int = function
  | Packet.Data -> 0 | Ack -> 1 | Grant -> 2 | Pull -> 3 | Nack -> 4
  | Ctrl -> 5
let kinds = [| Packet.Data; Ack; Grant; Pull; Nack; Ctrl |]

(* A descriptor holds the packet exactly: no telemetry, no header word
   past [hw0], node ids, payload and prio within their bits. The wire
   size is within its bits once queued. *)
let parkable (p : Packet.t) =
  p.tel_n = 0 && p.hw1 = 0 && p.hw2 = 0 && p.hw3 = 0
  && (p.src lor p.dst) lsr node_bits = 0
  && p.payload lsr 12 = 0 && p.prio land lnot 7 = 0

(* The descriptor the next [park] fills. *)
let next_descr t = if t.park_free >= 0 then t.park_free else t.park_len

let bit b v = if v then 1 lsl b else 0

(* Park queued packet [p] in descriptor [d = next_descr t]. [park] and
   [unpark] stay out of line: inlined, they would double the size of the
   transmit loop that every hop runs. *)
let[@inline never] park t d (p : Packet.t) =
  if d = t.park_free then
    t.park_free <-
      t.park_chunks.(d lsr chunk_bits).(dwords * (d land chunk_mask))
  else begin
    if d lsr chunk_bits = Array.length t.park_chunks then
      t.park_chunks <-
        Array.append t.park_chunks
          [| Array.make (dwords lsl chunk_bits) 0 |];
    t.park_len <- d + 1
  end;
  let c = t.park_chunks.(d lsr chunk_bits)
  and o = dwords * (d land chunk_mask) in
  c.(o) <- p.uid;
  c.(o + 1) <- p.flow;
  c.(o + 2) <- p.seq;
  c.(o + 3) <- p.hw0;
  c.(o + 4) <-
    p.src lor (p.dst lsl b_dst) lor (p.payload lsl b_payload)
    lor (p.wire lsl b_wire) lor (p.prio lsl b_prio)
    lor (kind_code p.kind lsl b_kind)
    lor bit b_loop (p.loop = Packet.L) lor bit b_ecn_capable p.ecn_capable
    lor bit b_ecn_ce p.ecn_ce lor bit b_trimmed p.trimmed
    lor bit b_sel_drop p.sel_drop lor bit b_hflag p.hflag;
  t.parked <- t.parked + 1;
  Packet.release p

let field b at bits = (b lsr at) land ((1 lsl bits) - 1)
let flag b at = b land (1 lsl at) <> 0

(* The parked packet of descriptor [d], in a record again: its id. *)
let[@inline never] unpark t d =
  let c = t.park_chunks.(d lsr chunk_bits)
  and o = dwords * (d land chunk_mask) in
  let b = c.(o + 4) in
  let p =
    Packet.acquire ~uid:c.(o) ~flow:c.(o + 1) ~src:(b land node_mask)
      ~dst:(field b b_dst node_bits) ~seq:c.(o + 2)
      ~payload:(field b b_payload 12) ~wire:(field b b_wire 12)
      ~prio:(field b b_prio 3) ~kind:kinds.(field b b_kind 3)
      ~loop:(if flag b b_loop then Packet.L else Packet.H)
      ~ecn_capable:(flag b b_ecn_capable) ~ecn_ce:(flag b b_ecn_ce)
      ~trimmed:(flag b b_trimmed) ~sel_drop:(flag b b_sel_drop)
  in
  p.hw0 <- c.(o + 3);
  p.hflag <- flag b b_hflag;
  c.(o) <- t.park_free;
  t.park_free <- d;
  t.parked <- t.parked - 1;
  p.id

(* A faulted packet still holds the wire for its serialization time
   (the bits were sent, just not received intact), so only the receive
   is suppressed; the end-of-serialization event keeps the transmit
   loop alive either way. *)
let fault_kill t (port : port) (p : Packet.t) reason =
  port.fault_drops <- port.fault_drops + 1;
  if !Trace.enabled then
    Trace.emit (Sim.now t.sim)
      (Ev.Fault_drop
         { node = port.owner; port = port.pix; flow = p.flow;
           seq = p.seq; kind = kind_tag p.kind; size = p.wire;
           reason });
  Packet.release p

(* A flowlet entry idle for longer than [gap] routes its flow's next
   packet exactly as a missing entry would (by the epoch hash), so
   dropping it changes no route. The table is checked each time it
   reaches a power of two entries (from 64), and its idle entries are
   dropped when they are the majority. A check that keeps them lets
   the table double before the next one, and a check that drops them
   frees over half the entries it reads, so checks cost O(1) per
   insertion amortized. The table stays within 64 entries or 4x the
   flows that sent within [gap] at its last check. *)
let prune_flowlets tbl ~now ~gap =
  let n = Hashtbl.length tbl in
  if n >= 64 && n land (n - 1) = 0 then begin
    let active st = now - st.fl_last <= gap in
    let live =
      Hashtbl.fold (fun _ st k -> if active st then k + 1 else k) tbl 0
    in
    if 2 * live < n then
      Hashtbl.filter_map_inplace
        (fun _ st -> if active st then Some st else None) tbl
  end

(* ECMP candidate index for one packet under the node's policy.
   Allocation-free: the flowlet table stores mutable records and misses
   are signalled by the (constant) [Not_found]. *)
let select sim (f : fwd) (p : Packet.t) =
  let n = Array.length f.cand in
  match f.sel with
  | Sel_flow -> ecmp_hash p.flow n
  | Sel_packet -> ecmp_hash (p.flow + (p.uid * 7919)) n
  | Sel_flowlet { gap; tbl } ->
    let now = Sim.now sim in
    (match Hashtbl.find tbl p.flow with
     | st ->
       if now - st.fl_last <= gap then begin
         st.fl_last <- now;
         st.fl_cand
       end else begin
         let epoch = now / Int.max 1 gap in
         let c = ecmp_hash (p.flow + (epoch * 65599)) n in
         st.fl_cand <- c;
         st.fl_last <- now;
         c
       end
     | exception Not_found ->
       let epoch = now / Int.max 1 gap in
       let c = ecmp_hash (p.flow + (epoch * 65599)) n in
       prune_flowlets tbl ~now ~gap;
       Hashtbl.add tbl p.flow { fl_cand = c; fl_last = now };
       c)

(* The cold half of a transmit, run only while tracing or with a fault
   filter installed: read the packet back, trace its dequeue, and tell
   whether the filter lost it on the wire. *)
let killed_on_wire t (port : port) id =
  let p = Packet.of_id id in
  if !Trace.enabled then
    Trace.emit (Sim.now t.sim)
      (Ev.Dequeue
         { node = port.owner; port = port.pix; prio = clamp_prio p.prio;
           flow = p.flow; seq = p.seq; kind = kind_tag p.kind;
           size = p.wire; occ = Prio_queue.bytes port.q });
  match (match port.fault_filter with None -> None | Some f -> f p) with
  | Some reason -> fault_kill t port p reason; true
  | None -> false

(* Transmit loop of a port: while the queue is non-empty, pop the next
   entry, hold the wire for its serialization time, then hand the
   packet to the far node after the propagation delay. The entry
   carries the wire size, so the loop reads the packet record only in
   [killed_on_wire]. A downed port parks with its queue intact; [kick]
   restarts it on link-up. *)
let rec start_tx t (port : port) =
  if not port.up then port.busy <- false
  else begin
    let e = Prio_queue.pop port.q in
    if e < 0 then port.busy <- false
    else begin
      let id = Prio_queue.entry_id e and wire = Prio_queue.entry_wire e in
      let id =
        if id land park_tag = 0 then id else unpark t (id lxor park_tag)
      in
      port.busy <- true;
      let tx = Units.tx_time ~rate:port.cur_rate ~bytes:wire in
      port.tx_bytes <- port.tx_bytes + wire;
      if not ((!Trace.enabled || Option.is_some port.fault_filter)
              && killed_on_wire t port id)
      then
        ignore
          (Sim.post t.sim ~after:(tx + port.delay + port.extra_delay)
             t.arr_h ((id lsl t.port_bits) lor port.gix) : int);
      ignore (Sim.post t.sim ~after:tx t.tx_h port.gix : int)
    end
  end

(* [park_at] is the backlog in bytes from which [p] is parked:
   [park_depth] for a host NIC ([send]), [max_int] for a switch port. *)
and send_on_port t (port : port) (p : Packet.t) ~park_at =
  (* A downed egress discards new arrivals (no carrier, no route), as
     a real switch does; packets already queued park until link-up. *)
  if not port.up then fault_kill t port p 'D'
  else begin
  stamp_int t port p;
  let d =
    if Prio_queue.bytes port.q >= park_at && parkable p
    then next_descr t else -1
  in
  let id = if d < 0 then p.id else park_tag lor d in
  let verdict =
    if !Trace.enabled then begin
      let was_ce = p.ecn_ce in
      let verdict = Prio_queue.enqueue_as port.q p ~id in
      trace_enqueue t port p verdict ~was_ce;
      verdict
    end
    else Prio_queue.enqueue_as port.q p ~id
  in
  match verdict with
  | Prio_queue.Dropped -> Packet.release p
  | Enqueued | Trimmed ->
    if d >= 0 then park t d p;
    if not port.busy then start_tx t port
  end

and receive t (node : node) (p : Packet.t) =
  if node.is_host then begin
    if p.dst = node.nid then deliver t p
    else begin
      t.undeliverable <- t.undeliverable + 1;
      Packet.release p
    end
  end else begin
    let f = node.fwd in
    let b = f.base.(p.dst) in
    send_on_port t
      node.ports.(if b >= 0 then b else f.cand.(select t.sim f p)) p
      ~park_at:max_int
  end

(* The delivery table's starting size, in pairs: a power of two. *)
let table_cap = 32

let create sim ?(collect_int = false) nodes =
  Array.iteri (fun i n ->
      if n.nid <> i then invalid_arg "Net.create: node ids must be dense";
      Array.iter (fun p ->
          if p.peer < 0 || p.peer >= Array.length nodes then
            invalid_arg "Net.create: unconnected port")
        n.ports)
    nodes;
  (* no [Array.map] over the nodes: on a set-up path, making an array
     of more than 256 words with a young initial value forces a minor
     collection first *)
  let ports =
    Array.concat
      (Array.fold_right (fun (n : node) acc -> n.ports :: acc) nodes [])
  in
  let port_bits =
    let rec bits b =
      if 1 lsl b >= Array.length ports then b else bits (b + 1)
    in
    bits 0
  in
  let port_mask = (1 lsl port_bits) - 1 in
  let t =
    { sim; nodes; ports; port_bits;
      tx_h = Sim.no_handler; arr_h = Sim.no_handler;
      dflow = Array.make table_cap (-1);
      dhost = Array.make (2 * table_cap) (-1);
      dfn = Array.make (2 * table_cap) ignore; collect_int;
      delivered = 0; undeliverable = 0;
      park_chunks = [||]; park_free = -1; park_len = 0; parked = 0;
      pool = Prio_queue.pool () }
  in
  t.tx_h <- Sim.register sim (fun g -> start_tx t (Array.unsafe_get ports g));
  t.arr_h <- Sim.register sim (fun x ->
      (Array.unsafe_get ports (x land port_mask)).recv_fire
        (Packet.of_id (x lsr port_bits)));
  Array.iteri (fun g p ->
      let peer = nodes.(p.peer) in
      Prio_queue.share_pool p.q t.pool;
      p.gix <- g;
      p.recv_fire <- (fun pkt -> receive t peer pkt))
    ports;
  t

(* Inject a packet at its source host NIC (port 0 by convention). The
   fabric carries the packet by id, so it must be the arena's record
   and in use: a copy would be read back as its original, and a
   released packet's id may be handed to another packet by the next
   [Packet.make]. *)
let send t (p : Packet.t) =
  if not (Packet.is_current p) then
    invalid_arg "Net.send: not a current packet (a copy, released, or \
                 made before the last Packet.reset)";
  let host = t.nodes.(p.src) in
  if not host.is_host then invalid_arg "Net.send: src is not a host";
  send_on_port t host.ports.(0) p ~park_at:park_depth

(* Restart a parked transmit loop (after link-up / unpause). *)
let kick t (port : port) = if port.up && not port.busy then start_tx t port

let delivery_pairs t = Array.length t.dflow
let parked t = t.parked
let delivered t = t.delivered
let undeliverable t = t.undeliverable

(* Aggregate drop/mark counters over every port in the network. *)
let sum_ports t f = Array.fold_left (fun acc p -> acc + f p) 0 t.ports

let total_drops t = sum_ports t (fun p -> Prio_queue.drops p.q)

let total_marks t = sum_ports t (fun p -> Prio_queue.marks p.q)
let total_fault_drops t = sum_ports t (fun p -> p.fault_drops)

(* Periodic probes: sample every port's queue occupancy, the link
   utilization over the last interval, and the current
   dynamic-threshold admission limits. The tick reschedules itself
   only while the clock stays at or below [until], so runs that drain
   to quiescence still terminate. *)
let start_probes t ~interval ~until =
  if interval <= 0 then invalid_arg "Net.start_probes: interval <= 0";
  let last_tx = Array.map (fun p -> p.tx_bytes) t.ports in
  let last_ts = ref (Sim.now t.sim) in
  let rec tick () =
    let now = Sim.now t.sim in
    let dt = now - !last_ts in
    Array.iteri
      (fun g p ->
         if !Trace.enabled then begin
           let node = p.owner and port = p.pix in
           Trace.emit now
             (Ev.Probe_queue
                { node; port; occ = Prio_queue.bytes p.q;
                  lp_occ = Prio_queue.lp_bytes p.q });
           let cap =
             if dt <= 0 then 0 else Units.bytes_in ~rate:p.rate ~time:dt
           in
           Trace.emit now
             (Ev.Probe_link
                { node; port; tx_bytes = p.tx_bytes;
                  util_ppm =
                    (if cap = 0 then 0
                     else (p.tx_bytes - last_tx.(g)) * 1_000_000 / cap) });
           match Prio_queue.dt_thresholds p.q with
           | Some (hp, lp) ->
             Trace.emit now (Ev.Probe_dt { node; port; hp; lp })
           | None -> ()
         end;
         last_tx.(g) <- p.tx_bytes)
      t.ports;
    last_ts := now;
    if now + interval <= until then
      ignore (Sim.schedule t.sim ~after:interval tick)
  in
  if Sim.now t.sim + interval <= until then
    ignore (Sim.schedule t.sim ~after:interval tick)
