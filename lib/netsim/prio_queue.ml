(* Egress queue discipline of a port: 8 FIFO queues dequeued in strict
   priority order, a shared drop-tail buffer, and instantaneous-queue
   ECN marking, as configured on commodity switches (§5 of the paper).

   Optional behaviours used by specific baselines:
   - [trim]: NDP-style payload trimming when the buffer is full —
     the header survives at the highest priority;
   - [sel_drop_threshold]: Aeolus-style selective dropping of packets
     flagged [sel_drop] once occupancy exceeds a small threshold;
   - [lp_buffer_cap]: cap on the bytes the low-priority band (P4-P7)
     may occupy (used for the RC3 limited-buffer variant, Fig. 24). *)

type config = {
  buffer_bytes : int;
  mark_thresholds : int option array;  (* per priority; None = no marking *)
  trim : bool;
  sel_drop_threshold : int option;
  lp_buffer_cap : int option;
  dt_alphas : float array option;
  (* Dynamic-threshold buffer sharing (Choudhury-Hahne), as configured
     on commodity switches: queue q admits a packet only while
     qlen(q) <= alpha(q) * (buffer - total occupancy). Lower alphas on
     the low-priority band squeeze opportunistic traffic out first when
     the buffer runs hot. *)
}

let n_prios = 8
let lp_band_start = 4
let trim_wire_bytes = 64

let no_marking = Array.make n_prios None

(* Mark every ECN-capable packet once occupancy exceeds [hp] (applied to
   priorities 0-3) or [lp] (4-7); both thresholds in bytes. *)
let mark_bands ~hp ~lp =
  Array.init n_prios (fun p -> if p < lp_band_start then hp else lp)

let default_config ~buffer_bytes = {
  buffer_bytes;
  mark_thresholds = no_marking;
  trim = false;
  sel_drop_threshold = None;
  lp_buffer_cap = None;
  dt_alphas = None;
}

(* The usual switch setup: a permissive share for the high-priority
   band and a tight one for the low band. *)
let dt_bands ~hp ~lp =
  Array.init n_prios (fun p -> if p < lp_band_start then hp else lp)

(* Each priority level is a preallocated ring buffer of packet ids
   (power-of-two capacity, grown by unwrapping into a doubled array),
   and [live] is a bitmask of the nonempty priorities so [dequeue]
   finds the head-of-line queue with one table lookup instead of a
   linear scan. Rings hold ids, not records, so a push is a plain int
   store with no write barrier. *)
type t = {
  cfg : config;
  dt_alphas : float array;          (* [||] when DT sharing is off *)
  mutable rings : int array array;
  heads : int array;
  lens : int array;
  mutable live : int;               (* bitmask of nonempty priorities *)
  qbytes : int array;
  mutable bytes : int;
  mutable lp_bytes : int;   (* occupancy of the P4-P7 band *)
  (* counters *)
  mutable enq_pkts : int;
  mutable drop_pkts : int;
  mutable drop_hp_pkts : int;
  mutable drop_lp_pkts : int;
  mutable drop_bytes : int;
  mutable trim_pkts : int;
  mutable mark_pkts : int;
}

type verdict = Enqueued | Dropped | Trimmed

(* [lowest_set.(mask)] is the lowest set bit's index; n_prios if none. *)
let lowest_set =
  Array.init (1 lsl n_prios) (fun m ->
      let rec find b =
        if b >= n_prios then n_prios
        else if m land (1 lsl b) <> 0 then b
        else find (b + 1)
      in
      find 0)

let create cfg =
  assert (Array.length cfg.mark_thresholds = n_prios);
  { cfg;
    dt_alphas =
      (match cfg.dt_alphas with
       | Some a -> assert (Array.length a = n_prios); a
       | None -> [||]);
    (* ring storage is allocated on first enqueue into a band: most
       ports only ever see one or two of the eight priorities *)
    rings = Array.make n_prios [||];
    heads = Array.make n_prios 0;
    lens = Array.make n_prios 0;
    live = 0;
    qbytes = Array.make n_prios 0;
    bytes = 0; lp_bytes = 0;
    enq_pkts = 0; drop_pkts = 0; drop_hp_pkts = 0; drop_lp_pkts = 0;
    drop_bytes = 0; trim_pkts = 0; mark_pkts = 0 }

let ring_push t prio id =
  let cap = Array.length t.rings.(prio) in
  if t.lens.(prio) = cap then begin
    (* unwrap the full ring into a doubled array *)
    let bigger = Array.make (Int.max 16 (2 * cap)) (-1) in
    let old = t.rings.(prio) and head = t.heads.(prio) in
    for i = 0 to cap - 1 do
      bigger.(i) <- old.((head + i) land (cap - 1))
    done;
    t.rings.(prio) <- bigger;
    t.heads.(prio) <- 0
  end;
  let arr = t.rings.(prio) in
  arr.((t.heads.(prio) + t.lens.(prio)) land (Array.length arr - 1))
    <- id;
  t.lens.(prio) <- t.lens.(prio) + 1;
  t.live <- t.live lor (1 lsl prio)

let ring_pop t prio =
  let arr = t.rings.(prio) in
  let head = t.heads.(prio) in
  let id = arr.(head) in
  t.heads.(prio) <- (head + 1) land (Array.length arr - 1);
  let len = t.lens.(prio) - 1 in
  t.lens.(prio) <- len;
  if len = 0 then t.live <- t.live land lnot (1 lsl prio);
  Packet.of_id id

let bytes t = t.bytes
let lp_bytes t = t.lp_bytes
let hp_bytes t = t.bytes - t.lp_bytes
let queue_bytes t prio = t.qbytes.(prio)
let is_empty t = t.bytes = 0

let buffer_bytes t = t.cfg.buffer_bytes

let mark_threshold t prio =
  t.cfg.mark_thresholds.(Int.max 0 (Int.min (n_prios - 1) prio))

let dt_thresholds t =
  if Array.length t.dt_alphas = 0 then None
  else begin
    let free = float_of_int (t.cfg.buffer_bytes - t.bytes) in
    Some (int_of_float (t.dt_alphas.(0) *. free),
          int_of_float (t.dt_alphas.(lp_band_start) *. free))
  end

let drops t = t.drop_pkts
let drops_hp t = t.drop_hp_pkts
let drops_lp t = t.drop_lp_pkts
let drop_bytes t = t.drop_bytes
let trims t = t.trim_pkts
let marks t = t.mark_pkts
let enqueues t = t.enq_pkts

let push t (p : Packet.t) =
  let prio = Int.max 0 (Int.min (n_prios - 1) p.prio) in
  ring_push t prio p.id;
  t.qbytes.(prio) <- t.qbytes.(prio) + p.wire;
  t.bytes <- t.bytes + p.wire;
  if prio >= lp_band_start then t.lp_bytes <- t.lp_bytes + p.wire;
  t.enq_pkts <- t.enq_pkts + 1;
  (* Instantaneous marking against the port occupancy that the packet
     sees. *)
  if p.ecn_capable then begin
    match t.cfg.mark_thresholds.(prio) with
    | Some k ->
      if t.bytes > k then begin
        if not p.ecn_ce then t.mark_pkts <- t.mark_pkts + 1;
        p.ecn_ce <- true
      end
    | None -> ()
  end

let drop t (p : Packet.t) =
  t.drop_pkts <- t.drop_pkts + 1;
  if p.prio >= lp_band_start then t.drop_lp_pkts <- t.drop_lp_pkts + 1
  else t.drop_hp_pkts <- t.drop_hp_pkts + 1;
  t.drop_bytes <- t.drop_bytes + p.wire

(* Admission is straight-line and allocation-free: integer checks run
   first, and the dynamic-threshold float comparison (the only float
   work on the datapath) only when DT sharing is on and the packet is
   subject to it. *)
let admits t (p : Packet.t) =
  t.bytes + p.wire <= t.cfg.buffer_bytes
  && (p.prio < lp_band_start
      || (match t.cfg.lp_buffer_cap with
          | None -> true
          | Some cap -> t.lp_bytes + p.wire <= cap))
  && (Array.length t.dt_alphas = 0
      (* selectively-droppable (Aeolus) packets are admitted by their
         own threshold, not by the dynamic shares *)
      || p.sel_drop
      || (let prio = Int.max 0 (Int.min (n_prios - 1) p.prio) in
          float_of_int (t.qbytes.(prio) + p.wire)
          <= t.dt_alphas.(prio)
             *. float_of_int (t.cfg.buffer_bytes - t.bytes)))

let enqueue t (p : Packet.t) =
  let sel_dropped =
    p.sel_drop
    && (match t.cfg.sel_drop_threshold with
        | Some k -> t.bytes + p.wire > k
        | None -> false)
  in
  if sel_dropped then begin drop t p; Dropped end
  else if admits t p then begin push t p; Enqueued end
  else if t.cfg.trim && p.kind = Data && not p.trimmed then begin
    (* NDP: cut the payload, keep the header, jump to the top queue. *)
    p.trimmed <- true;
    p.wire <- trim_wire_bytes;
    p.prio <- 0;
    if t.bytes + p.wire <= t.cfg.buffer_bytes then begin
      t.trim_pkts <- t.trim_pkts + 1;
      push t p;
      Trimmed
    end else begin drop t p; Dropped end
  end
  else begin drop t p; Dropped end

(* Option-free variant for the transmit loop: returns [Packet.dummy]
   when every queue is empty, so the (per-packet) hot path allocates
   nothing. *)
let dequeue_or_dummy t =
  let prio = lowest_set.(t.live) in
  if prio >= n_prios then Packet.dummy
  else begin
    let p = ring_pop t prio in
    t.qbytes.(prio) <- t.qbytes.(prio) - p.wire;
    t.bytes <- t.bytes - p.wire;
    if prio >= lp_band_start then t.lp_bytes <- t.lp_bytes - p.wire;
    p
  end

let dequeue t =
  let p = dequeue_or_dummy t in
  if p == Packet.dummy then None else Some p
