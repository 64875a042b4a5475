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
  mutable tx_payload : int;         (* cumulative data payload sent *)
  mutable gix : int;
  (* index in the net's [ports], installed by [create]: the argument
     of the port's end-of-serialization event *)
  mutable recv_fire : Packet.t -> unit;
  (* far-end arrival continuation, installed by [create]; the net's
     arrival handler calls it *)
  mutable memo_bytes : int;         (* serialization-time memo: *)
  mutable memo_rate : Units.rate;   (* tx_time at (memo_bytes, memo_rate) *)
  mutable memo_tx : Units.time;     (* is memo_tx — ports see few sizes *)
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

(* The delivery table is indexed by flow: every transport registers
   one handler at the flow's source and one at its destination, so
   slots [2 * flow] and [2 * flow + 1] hold the host ([-1] when free)
   and its handler. Flow ids are dense within a run, so the table
   stays small and a delivery is two int compares and an array read. *)
type t = {
  sim : Sim.t;
  nodes : node array;
  ports : port array;               (* every port, by [gix] *)
  (* Packets on the wire: slot [s] holds a packet and the [gix] of the
     port that sent it until its arrival event, whose argument is [s],
     fires. A free slot's [fl_port] links the free list instead. Slots
     are never cleared: the table dies with the net. *)
  mutable fl_pkt : Packet.t array;
  mutable fl_port : int array;
  mutable fl_free : int;
  mutable tx_h : Sim.handler;       (* end of serialization, arg [gix] *)
  mutable arr_h : Sim.handler;      (* far-end arrival, arg a slot *)
  mutable dhost : int array;
  mutable dfn : (Packet.t -> unit) array;
  collect_int : bool;
  mutable delivered : int;
  mutable undeliverable : int;
}

let make_port ~owner ~pix ~rate ~delay qcfg =
  { owner; pix; rate; delay; peer = -1; q = Prio_queue.create qcfg;
    busy = false; tx_bytes = 0; tx_payload = 0; gix = -1;
    recv_fire = ignore;
    memo_bytes = -1; memo_rate = -1; memo_tx = 0;
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

(* The delivery-table slot of [flow] at [host], or -1; [host = -1]
   finds a free slot. *)
let find t ~host ~flow =
  let i = 2 * flow in
  if i < 0 || i >= Array.length t.dhost then -1
  else if Array.unsafe_get t.dhost i = host then i
  else if Array.unsafe_get t.dhost (i + 1) = host then i + 1
  else -1

let register t ~host ~flow handler =
  if flow < 0 || flow >= Sys.max_array_length / 2 then
    invalid_arg "Net.register: flow id out of range";
  if host < 0 || host >= Array.length t.nodes || not t.nodes.(host).is_host
  then invalid_arg "Net.register: not a host of this network";
  let n = Array.length t.dhost in
  if 2 * flow >= n then begin
    let m = ref (Int.max 64 n) in
    while !m <= 2 * flow do m := 2 * !m done;
    let dhost = Array.make !m (-1) and dfn = Array.make !m ignore in
    Array.blit t.dhost 0 dhost 0 n;
    Array.blit t.dfn 0 dfn 0 n;
    t.dhost <- dhost;
    t.dfn <- dfn
  end;
  let i =
    let i = find t ~host ~flow and free = find t ~host:(-1) ~flow in
    if i >= 0 then i
    else if free >= 0 then free
    else invalid_arg "Net.register: flow already has handlers at two hosts"
  in
  t.dhost.(i) <- host;
  t.dfn.(i) <- handler

let unregister t ~host ~flow =
  let i = find t ~host ~flow in
  if i >= 0 then begin
    t.dhost.(i) <- -1;
    t.dfn.(i) <- ignore
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

let trace_dequeue t (port : port) (p : Packet.t) =
  Trace.emit (Sim.now t.sim)
    (Ev.Dequeue
       { node = port.owner; port = port.pix; prio = clamp_prio p.prio;
         flow = p.flow; seq = p.seq; kind = kind_tag p.kind;
         size = p.wire; occ = Prio_queue.bytes port.q })

(* Packet sinks. The fabric owns every packet handed to [send]; at each
   terminal point — delivery, queue drop, fault kill, undeliverable —
   it returns the record to the pool. Delivery handlers borrow the
   packet for the duration of the call and must not retain it. *)

let deliver t (p : Packet.t) =
  let i = find t ~host:p.dst ~flow:p.flow in
  if i >= 0 then begin
    t.delivered <- t.delivered + 1;
    (Array.unsafe_get t.dfn i) p
  end else t.undeliverable <- t.undeliverable + 1;
  Packet.release p

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
       Hashtbl.add tbl p.flow { fl_cand = c; fl_last = now };
       c)

(* Put [p], sent by [port], on the wire: take an in-flight slot,
   growing the table when none is free. *)
let fly t (port : port) (p : Packet.t) =
  if t.fl_free < 0 then begin
    let n = Array.length t.fl_port in
    let m = 2 * n in
    let pkt = Array.make m Packet.dummy and link = Array.make m (-1) in
    Array.blit t.fl_pkt 0 pkt 0 n;
    Array.blit t.fl_port 0 link 0 n;
    for s = n to m - 2 do link.(s) <- s + 1 done;
    t.fl_pkt <- pkt;
    t.fl_port <- link;
    t.fl_free <- n
  end;
  let s = t.fl_free in
  t.fl_free <- Array.unsafe_get t.fl_port s;
  Array.unsafe_set t.fl_pkt s p;
  Array.unsafe_set t.fl_port s port.gix;
  s

(* Transmit loop of a port: while the queue is non-empty, pop the next
   packet, hold the wire for its serialization time, then hand it to the
   far node after the propagation delay. A downed port parks with its
   queue intact; [kick] restarts it on link-up. *)
let rec start_tx t (port : port) =
  if not port.up then port.busy <- false
  else begin
    let p = Prio_queue.dequeue_or_dummy port.q in
    if p == Packet.dummy then port.busy <- false
    else begin
      if !Trace.enabled then trace_dequeue t port p;
      port.busy <- true;
      let tx =
        (* a port sees a handful of distinct wire sizes, so one memo
           slot removes the division from nearly every transmit *)
        if p.wire = port.memo_bytes && port.cur_rate = port.memo_rate
        then port.memo_tx
        else begin
          let v = Units.tx_time ~rate:port.cur_rate ~bytes:p.wire in
          port.memo_bytes <- p.wire;
          port.memo_rate <- port.cur_rate;
          port.memo_tx <- v;
          v
        end
      in
      port.tx_bytes <- port.tx_bytes + p.wire;
      if p.kind = Data && not p.trimmed then
        port.tx_payload <- port.tx_payload + p.payload;
      (match
         (match port.fault_filter with None -> None | Some f -> f p)
       with
       | Some reason -> fault_kill t port p reason
       | None ->
         let arrive_after = tx + port.delay + port.extra_delay in
         Sim.post t.sim ~after:arrive_after t.arr_h (fly t port p));
      Sim.post t.sim ~after:tx t.tx_h port.gix
    end
  end

and send_on_port t (port : port) (p : Packet.t) =
  (* A downed egress discards new arrivals (no carrier, no route), as
     a real switch does; packets already queued park until link-up. *)
  if not port.up then fault_kill t port p 'D'
  else begin
  stamp_int t port p;
  if !Trace.enabled then begin
    let was_ce = p.ecn_ce in
    let verdict = Prio_queue.enqueue port.q p in
    trace_enqueue t port p verdict ~was_ce;
    match verdict with
    | Prio_queue.Dropped -> Packet.release p
    | Enqueued | Trimmed -> if not port.busy then start_tx t port
  end
  else
    match Prio_queue.enqueue port.q p with
    | Prio_queue.Dropped -> Packet.release p
    | Enqueued | Trimmed -> if not port.busy then start_tx t port
  end

and receive t nid (p : Packet.t) =
  let node = t.nodes.(nid) in
  if node.is_host then begin
    if p.dst = nid then deliver t p
    else begin
      t.undeliverable <- t.undeliverable + 1;
      Packet.release p
    end
  end else begin
    let f = node.fwd in
    let b = f.base.(p.dst) in
    send_on_port t
      node.ports.(if b >= 0 then b else f.cand.(select t.sim f p)) p
  end

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
  let t =
    { sim; nodes; ports;
      fl_pkt = Array.make 64 Packet.dummy;
      fl_port = Array.init 64 (fun s -> if s < 63 then s + 1 else -1);
      fl_free = 0; tx_h = Sim.no_handler; arr_h = Sim.no_handler;
      dhost = [||]; dfn = [||]; collect_int;
      delivered = 0; undeliverable = 0 }
  in
  t.tx_h <- Sim.register sim (fun g -> start_tx t (Array.unsafe_get ports g));
  t.arr_h <- Sim.register sim (fun s ->
      let p = Array.unsafe_get t.fl_pkt s in
      let port = Array.unsafe_get ports (Array.unsafe_get t.fl_port s) in
      Array.unsafe_set t.fl_port s t.fl_free;
      t.fl_free <- s;
      port.recv_fire p);
  Array.iteri (fun g p ->
      p.gix <- g;
      p.recv_fire <- (fun pkt -> receive t p.peer pkt))
    ports;
  t

(* Inject a packet at its source host NIC (port 0 by convention). *)
let send t (p : Packet.t) =
  let host = t.nodes.(p.src) in
  if not host.is_host then invalid_arg "Net.send: src is not a host";
  send_on_port t host.ports.(0) p

(* Restart a parked transmit loop (after link-up / unpause). *)
let kick t (port : port) = if port.up && not port.busy then start_tx t port

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
  let last_tx =
    Array.map (fun (n : node) -> Array.map (fun p -> p.tx_bytes) n.ports)
      t.nodes
  in
  let last_ts = ref (Sim.now t.sim) in
  let rec tick () =
    let now = Sim.now t.sim in
    let dt = now - !last_ts in
    if !Trace.enabled then
      Array.iter
        (fun (n : node) ->
           Array.iter
             (fun p ->
                Trace.emit now
                  (Ev.Probe_queue
                     { node = n.nid; port = p.pix;
                       occ = Prio_queue.bytes p.q;
                       lp_occ = Prio_queue.lp_bytes p.q });
                let sent = p.tx_bytes - last_tx.(n.nid).(p.pix) in
                let cap =
                  if dt <= 0 then 0
                  else Units.bytes_in ~rate:p.rate ~time:dt
                in
                Trace.emit now
                  (Ev.Probe_link
                     { node = n.nid; port = p.pix;
                       tx_bytes = p.tx_bytes;
                       util_ppm =
                         (if cap = 0 then 0
                          else sent * 1_000_000 / cap) });
                match Prio_queue.dt_thresholds p.q with
                | Some (hp, lp) ->
                  Trace.emit now
                    (Ev.Probe_dt
                       { node = n.nid; port = p.pix; hp; lp })
                | None -> ())
             n.ports)
        t.nodes;
    Array.iter
      (fun (n : node) ->
         Array.iter (fun p -> last_tx.(n.nid).(p.pix) <- p.tx_bytes)
           n.ports)
      t.nodes;
    last_ts := now;
    if now + interval <= until then
      ignore (Sim.schedule t.sim ~after:interval tick)
  in
  if Sim.now t.sim + interval <= until then
    ignore (Sim.schedule t.sim ~after:interval tick)
