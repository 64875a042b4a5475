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

(* Each priority level is a FIFO of fixed-size chunks of [chunk_words]
   ints: [chunk_entries] entries, then the index of the next chunk. A
   band takes chunks from a pool as its backlog grows and returns each
   chunk it has read through, so what a queue holds follows its
   backlog, not its worst one. Every port of a net shares one pool
   ([share_pool]): backlogs move from port to port as flows come and
   go, and a chunk one port frees is the next chunk another port takes.
   The pool keeps the chunks it takes back on an int free list, chained
   through the same last word, so a run makes no more chunks than it
   ever holds at once. A drained band keeps its one chunk, so a lightly
   loaded port takes nothing from the pool.

   Chunk [c] is the words from [c lsl chunk_bits] of the pool's store,
   which is cut into slabs of [slab_chunks] chunks: a word at position
   [pos] is [slabs.(pos lsr slab_bits).(pos land slab_mask)]. A slab is
   larger than any block the minor heap allocates, so a new one goes
   straight to the major heap: making chunks costs no minor words, and
   no chunk is ever copied. [ends.(2 * prio)] is a band's head and
   [ends.(2 * prio + 1)] its tail, each a position: the next entry to
   read, the next slot to write. Both are -1 before the band takes its
   first chunk. A tail at a chunk's last word sits past a full chunk,
   whose successor is linked there at the next push; a head there has
   read its chunk through, and the next pop returns it and follows the
   link.

   [live] is a bitmask of the nonempty priorities, so [pop] finds the
   head-of-line queue with one table lookup instead of a linear scan.
   An entry packs the packet's id with its wire size, so a push is a
   plain int store with no write barrier and a pop does its byte
   accounting without reading the packet. The configured thresholds
   are resolved into ints at [create], [max_int] standing for "none",
   so admission reads neither the config nor an option. *)

(* 32-word chunks: a drained band keeps one, and PPT's ports use most
   of the eight bands, so smaller chunks waste less (HACKING.md
   "Allocation discipline" has the sizes measured). *)
let chunk_bits = 5
let chunk_words = 1 lsl chunk_bits
let chunk_entries = chunk_words - 1 (* the offset of the link *)
let slab_chunks = 16                (* 512 words: past the minor heap *)
let slab_bits = chunk_bits + 4      (* log2 of a slab's words *)
let slab_mask = (1 lsl slab_bits) - 1

type pool = {
  mutable slabs : int array array;  (* [||] past the slabs made *)
  mutable n_chunks : int;           (* chunks made *)
  mutable free : int;               (* first free chunk, or -1 *)
}

let pool () = { slabs = [||]; n_chunks = 0; free = -1 }
let pool_chunks pool = pool.n_chunks

let[@inline] get pool pos =
  pool.slabs.(pos lsr slab_bits).(pos land slab_mask)
let[@inline] set pool pos v =
  pool.slabs.(pos lsr slab_bits).(pos land slab_mask) <- v
let[@inline] link_of c = (c lsl chunk_bits) lor chunk_entries

(* A chunk off the free list, or a new one. *)
let take pool =
  let c = pool.free in
  if c >= 0 then begin
    pool.free <- get pool (link_of c);
    c
  end else begin
    let c = pool.n_chunks in
    let s = c / slab_chunks in
    if c mod slab_chunks = 0 then begin
      (* the directory doubles: appending one slab at a time copied it
         on every slab, and fabric [peak_mem_mb] read 5.11 MB, not
         4.96 *)
      if s = Array.length pool.slabs then begin
        let bigger = Array.make (Int.max 8 (2 * s)) [||] in
        Array.blit pool.slabs 0 bigger 0 s;
        pool.slabs <- bigger
      end;
      pool.slabs.(s) <- Array.make (slab_chunks * chunk_words) 0
    end;
    pool.n_chunks <- c + 1;
    c
  end

type t = {
  buffer : int;
  lp_cap : int;
  sel_drop_at : int;
  marks_at : int array;             (* per priority *)
  trim : bool;
  dt_alphas : float array;          (* [||] when DT sharing is off *)
  mutable pool : pool;
  ends : int array;                 (* head, tail per priority *)
  lens : int array;
  mutable live : int;               (* bitmask of nonempty priorities *)
  qbytes : int array;
  mutable bytes : int;
  mutable lp_bytes : int;   (* occupancy of the P4-P7 band *)
  (* counters *)
  mutable enq_pkts : int;
  mutable enq_bytes : int;
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
    (* a band takes its first chunk on its first enqueue *)
    pool = pool ();
    ends = Array.make (2 * n_prios) (-1);
    lens = Array.make n_prios 0;
    live = 0;
    qbytes = Array.make n_prios 0;
    bytes = 0; lp_bytes = 0;
    enq_pkts = 0; enq_bytes = 0;
    drop_pkts = 0; drop_hp_pkts = 0; drop_lp_pkts = 0;
    drop_bytes = 0; trim_pkts = 0; mark_pkts = 0 }

(* Only a push takes a chunk, and every push counts in [enq_pkts]. *)
let share_pool t pool =
  if t.enq_pkts > 0 then
    invalid_arg "Prio_queue.share_pool: the queue already holds chunks";
  t.pool <- pool

(* The tail [tl] of band [prio] sits past a full chunk (or before its
   first): take a chunk, link it, and move the tail (and, for a first
   chunk, the head) to its first slot. *)
let[@inline never] next_tail t prio tl =
  let c = take t.pool in
  if tl < 0 then t.ends.(2 * prio) <- c lsl chunk_bits
  else set t.pool tl c;
  t.ends.((2 * prio) + 1) <- c lsl chunk_bits

(* The head [hd] at [ends.(i)] has read its chunk through: return the
   chunk to the pool and move the head to the linked one. *)
let[@inline never] next_head t i hd =
  let pool = t.pool in
  let next = get pool hd in
  set pool hd pool.free;
  pool.free <- hd lsr chunk_bits;
  t.ends.(i) <- next lsl chunk_bits

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
let enqueued_bytes t = t.enq_bytes
let length t prio = t.lens.(prio)

(* At a chunk boundary [push] and [pop] move the band's end and start
   over, so the common path makes no call and keeps its values in
   registers. *)
let rec push t (p : Packet.t) id =
  let prio = Int.max 0 (Int.min (n_prios - 1) p.prio) in
  let i = (2 * prio) + 1 in
  let tl = t.ends.(i) in
  if tl land chunk_entries = chunk_entries then begin
    next_tail t prio tl;
    push t p id
  end else begin
    set t.pool tl ((id lsl wire_bits) lor p.wire);
    t.ends.(i) <- tl + 1;
    t.lens.(prio) <- t.lens.(prio) + 1;
    t.live <- t.live lor (1 lsl prio);
    t.qbytes.(prio) <- t.qbytes.(prio) + p.wire;
    t.bytes <- t.bytes + p.wire;
    if prio >= lp_band_start then t.lp_bytes <- t.lp_bytes + p.wire;
    t.enq_pkts <- t.enq_pkts + 1;
    t.enq_bytes <- t.enq_bytes + p.wire;
    (* Instantaneous marking against the port occupancy that the packet
       sees. *)
    if p.ecn_capable && t.bytes > t.marks_at.(prio) then begin
      if not p.ecn_ce then t.mark_pkts <- t.mark_pkts + 1;
      p.ecn_ce <- true
    end
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
let rec pop t =
  let prio = lowest_set.(t.live) in
  if prio >= n_prios then -1
  else begin
    let i = 2 * prio in
    let hd = t.ends.(i) in
    if hd land chunk_entries = chunk_entries then begin
      next_head t i hd;
      pop t
    end else begin
      let e = get t.pool hd in
      let len = t.lens.(prio) - 1 in
      t.lens.(prio) <- len;
      if len = 0 then begin
        (* drained: head and tail share the chunk, which the band keeps *)
        let first = hd land lnot chunk_entries in
        t.ends.(i) <- first;
        t.ends.(i + 1) <- first;
        t.live <- t.live land lnot (1 lsl prio)
      end
      else t.ends.(i) <- hd + 1;
      let wire = entry_wire e in
      t.qbytes.(prio) <- t.qbytes.(prio) - wire;
      t.bytes <- t.bytes - wire;
      if prio >= lp_band_start then t.lp_bytes <- t.lp_bytes - wire;
      e
    end
  end

let dequeue_or_dummy t =
  let e = pop t in
  if e < 0 then Packet.dummy else Packet.of_id (entry_id e)

(* --- storage and self-check ---------------------------------------- *)

let bands_held t =
  let n = ref 0 in
  for prio = 0 to n_prios - 1 do
    if t.ends.(2 * prio) >= 0 then incr n
  done;
  !n

let storage_words t =
  let chunks = ref 0 in
  for prio = 0 to n_prios - 1 do
    let hd = t.ends.(2 * prio) in
    if hd >= 0 then begin
      let c = ref (hd lsr chunk_bits)
      and last = t.ends.((2 * prio) + 1) lsr chunk_bits in
      incr chunks;
      while !c <> last do
        c := get t.pool (link_of !c);
        incr chunks
      done
    end
  done;
  !chunks * chunk_words

(* Entries and wire bytes from band [prio]'s head to its tail. The walk
   stops after [lens + 1] entries or at a link to no chunk, so it ends
   on a broken band too. *)
let walk t prio =
  let len = t.lens.(prio) and tl = t.ends.((2 * prio) + 1) in
  let pos = ref t.ends.(2 * prio) and n = ref 0 and wire = ref 0 in
  while !pos >= 0 && !pos <> tl && !n <= len do
    if !pos land chunk_entries = chunk_entries then begin
      let c = get t.pool !pos in
      pos := if c >= 0 && c < t.pool.n_chunks then c lsl chunk_bits else -1
    end else begin
      wire := !wire + entry_wire (get t.pool !pos);
      incr n;
      incr pos
    end
  done;
  (!n, !wire)

let check t =
  let error = ref None and total = ref 0 and low = ref 0 in
  for prio = n_prios - 1 downto 0 do
    let n, wire = walk t prio in
    if n <> t.lens.(prio) || wire <> t.qbytes.(prio) then
      error :=
        Some
          (Printf.sprintf "P%d holds %d entries of %d bytes, not %d of %d"
             prio n wire t.lens.(prio) t.qbytes.(prio));
    total := !total + t.qbytes.(prio);
    if prio >= lp_band_start then low := !low + t.qbytes.(prio)
  done;
  match !error with
  | Some what -> Error what
  | None when !total <> t.bytes || !low <> t.lp_bytes ->
    Error
      (Printf.sprintf "the bands hold %d bytes (%d low), not %d (%d)"
         !total !low t.bytes t.lp_bytes)
  | None -> Ok ()
