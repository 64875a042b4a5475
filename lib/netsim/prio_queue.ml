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

(* One value for the high band (P0-P3), another for the low (P4-P7):
   ECN thresholds in bytes (mark every ECN-capable packet once
   occupancy exceeds them), or dynamic-threshold alphas (the usual
   switch setup: a permissive share for the high band, a tight one for
   the low). *)
let bands ~hp ~lp =
  Array.init n_prios (fun p -> if p < lp_band_start then hp else lp)
let mark_bands = bands
let dt_bands = bands

let default_config ~buffer_bytes = {
  buffer_bytes;
  mark_thresholds = no_marking;
  trim = false;
  sel_drop_threshold = None;
  lp_buffer_cap = None;
  dt_alphas = None;
}

(* Each priority level is a preallocated ring buffer of entries
   (power-of-two capacity, grown by unwrapping into a doubled array),
   and [live] is a bitmask of the nonempty priorities so [pop] finds
   the head-of-line queue with one table lookup instead of a linear
   scan. An entry packs the packet's id with its wire size, so a push
   is a plain int store with no write barrier and a pop does its byte
   accounting without reading the packet. The configured thresholds
   are resolved into ints at [create], [max_int] standing for "none",
   so admission reads neither the config nor an option. *)
type t = {
  buffer : int;
  lp_cap : int;
  sel_drop_at : int;
  marks_at : int array;             (* per priority *)
  trim : bool;
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

let wire_bits = 12
let[@inline] entry_id e = e lsr wire_bits
let[@inline] entry_wire e = e land ((1 lsl wire_bits) - 1)

let create cfg =
  assert (Array.length cfg.mark_thresholds = n_prios);
  let int_of = Option.value ~default:max_int in
  { buffer = cfg.buffer_bytes;
    lp_cap = int_of cfg.lp_buffer_cap;
    sel_drop_at = int_of cfg.sel_drop_threshold;
    marks_at = Array.map int_of cfg.mark_thresholds;
    trim = cfg.trim;
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

let ring_push t prio e =
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
    <- e;
  t.lens.(prio) <- t.lens.(prio) + 1;
  t.live <- t.live lor (1 lsl prio)

let ring_pop t prio =
  let arr = t.rings.(prio) in
  let head = t.heads.(prio) in
  let e = arr.(head) in
  t.heads.(prio) <- (head + 1) land (Array.length arr - 1);
  let len = t.lens.(prio) - 1 in
  t.lens.(prio) <- len;
  if len = 0 then t.live <- t.live land lnot (1 lsl prio);
  e

let bytes t = t.bytes
let lp_bytes t = t.lp_bytes
let hp_bytes t = t.bytes - t.lp_bytes
let queue_bytes t prio = t.qbytes.(prio)

let buffer_bytes t = t.buffer

let mark_threshold t prio =
  let k = t.marks_at.(Int.max 0 (Int.min (n_prios - 1) prio)) in
  if k = max_int then None else Some k

let dt_thresholds t =
  if Array.length t.dt_alphas = 0 then None
  else begin
    let free = float_of_int (t.buffer - t.bytes) in
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

let push t (p : Packet.t) id =
  let prio = Int.max 0 (Int.min (n_prios - 1) p.prio) in
  ring_push t prio ((id lsl wire_bits) lor p.wire);
  t.qbytes.(prio) <- t.qbytes.(prio) + p.wire;
  t.bytes <- t.bytes + p.wire;
  if prio >= lp_band_start then t.lp_bytes <- t.lp_bytes + p.wire;
  t.enq_pkts <- t.enq_pkts + 1;
  (* Instantaneous marking against the port occupancy that the packet
     sees. *)
  if p.ecn_capable && t.bytes > t.marks_at.(prio) then begin
    if not p.ecn_ce then t.mark_pkts <- t.mark_pkts + 1;
    p.ecn_ce <- true
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
  t.bytes + p.wire <= t.buffer
  && (p.prio < lp_band_start || t.lp_bytes + p.wire <= t.lp_cap)
  && (Array.length t.dt_alphas = 0
      (* selectively-droppable (Aeolus) packets are admitted by their
         own threshold, not by the dynamic shares *)
      || p.sel_drop
      || (let prio = Int.max 0 (Int.min (n_prios - 1) p.prio) in
          float_of_int (t.qbytes.(prio) + p.wire)
          <= t.dt_alphas.(prio)
             *. float_of_int (t.buffer - t.bytes)))

let enqueue_as t (p : Packet.t) ~id =
  if p.wire lsr wire_bits <> 0 then
    invalid_arg "Prio_queue.enqueue: wire size outside [0, 4096)";
  if p.sel_drop && t.bytes + p.wire > t.sel_drop_at then begin
    drop t p; Dropped
  end else if admits t p then begin push t p id; Enqueued end
  else if t.trim && p.kind = Data && not p.trimmed then begin
    (* NDP: cut the payload, keep the header, jump to the top queue. *)
    p.trimmed <- true;
    p.wire <- trim_wire_bytes;
    p.prio <- 0;
    if t.bytes + p.wire <= t.buffer then begin
      t.trim_pkts <- t.trim_pkts + 1;
      push t p id;
      Trimmed
    end else begin drop t p; Dropped end
  end
  else begin drop t p; Dropped end

let enqueue t (p : Packet.t) = enqueue_as t p ~id:p.id

(* The head-of-line entry, or -1 when every queue is empty. *)
let pop t =
  let prio = lowest_set.(t.live) in
  if prio >= n_prios then -1
  else begin
    let e = ring_pop t prio in
    let wire = entry_wire e in
    t.qbytes.(prio) <- t.qbytes.(prio) - wire;
    t.bytes <- t.bytes - wire;
    if prio >= lp_band_start then t.lp_bytes <- t.lp_bytes - wire;
    e
  end

let dequeue_or_dummy t =
  let e = pop t in
  if e < 0 then Packet.dummy else Packet.of_id (entry_id e)
