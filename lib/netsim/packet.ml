(* Packets are the unit of everything the simulator moves.

   [src]/[dst] are host node ids; a packet is routed towards [dst] and
   delivered to the endpoint registered there for [flow]. Transports
   carry their protocol headers in four int words and a flag
   ([hw0]..[hw3], [hflag]), which only [Ppt_transport.Wire] names and
   reads, so the network layer stays protocol-agnostic and a header
   costs plain int stores.

   Packets live in a process-wide arena: every record carries its
   immutable [id], its index there, so the datapath refers to packets
   by int — queue rings, in-flight arrival events — and [of_id] reads
   the record back. Storing an int is a plain store where storing a
   record would run the write barrier. [make] recycles a free record
   (re-initialising every mutable field) and [release] frees it again;
   free records are chained through [free_link], so the free list is an
   int head. The steady-state datapath allocates nothing per packet.
   Ownership is linear and documented in HACKING.md ("Allocation
   discipline"):

   - the transport that [make]s a packet owns it until [Net.send];
   - from then on the fabric owns it: it lives in port queues and
     in-flight arrival events, by id — or, deep in a host NIC's
     backlog, parked in the net's descriptor store with no record at
     all, to be [acquire]d again under the same uid (and a new id)
     when it reaches the head of the queue;
   - at a sink (delivery, drop, fault kill, undeliverable) the fabric
     calls [release] — delivery handlers only borrow the packet for
     the duration of the call and must not retain it;
   - packets never handed to [Net.send] stay owned by their creator
     (tests that exercise [Prio_queue] directly just let the GC have
     them; [release] is an optimisation, not an obligation).

   A record must never be copied ([{ p with ... }]): the copy would
   carry the original's id. [reset] drops the arena once per run, so
   packets stranded in queues at the end of a run (or never released)
   are collected with it rather than piling up across runs.

   Ownership is checked in every run: [release] raises on a double
   release and on a record the arena does not hold, and poisons the
   released record so a stale reader fails loudly; [Net.send] refuses
   a packet that is not [is_current] (a copy, a packet from before the
   last [reset], or a released one). *)

type kind =
  | Data  (* payload-carrying, sender to receiver *)
  | Ack   (* receiver to sender *)
  | Grant (* receiver-driven credit (Homa/Aeolus) *)
  | Pull  (* receiver-driven pull (NDP) *)
  | Nack  (* loss notification (NDP trimmed header echo, Aeolus) *)
  | Ctrl  (* anything else *)

type loop = H | L
(** Which control loop a PPT/RC3-style packet belongs to: the
    high-priority primary loop or the low-priority opportunistic one. *)

(* Fixed-capacity inband-telemetry snapshot (HPCC): one entry per hop,
   four ints per entry (queue bytes, cumulative tx bytes, timestamp,
   line rate) packed into a single strided array that lives with the
   pooled packet, so stamping a hop is four stores — no list cells.
   The array is allocated on a record's first stamp: only fabrics that
   collect telemetry ever stamp one. *)
let tel_cap = 8
let tel_stride = 4

type t = {
  id : int;                 (* index in the arena; -1 for [dummy] *)
  mutable uid : int;
  mutable flow : int;
  mutable src : int;
  mutable dst : int;
  mutable seq : int;        (* segment index within the flow; -1 for control *)
  mutable payload : int;    (* payload bytes covered (0 for pure control) *)
  mutable wire : int;       (* bytes occupied on the wire *)
  mutable prio : int;       (* 0 (highest) .. 7 (lowest) *)
  mutable kind : kind;
  mutable loop : loop;
  mutable ecn_capable : bool;
  mutable ecn_ce : bool;    (* congestion-experienced mark *)
  mutable trimmed : bool;   (* NDP: payload cut, header survived *)
  mutable sel_drop : bool;  (* Aeolus: drop me early instead of queueing *)
  (* header words, cleared by [make]; only [Ppt_transport.Wire] reads
     and writes them *)
  mutable hw0 : int;
  mutable hw1 : int;
  mutable hw2 : int;
  mutable hw3 : int;
  mutable hflag : bool;
  mutable tel_n : int;      (* hops stamped into [tel] *)
  mutable tel : int array;  (* tel_cap x tel_stride, or [||] until used *)
  mutable free_link : int;
  (* [live] while in use; on the free list, the next free id or -1 *)
}

let header_bytes = 40
let mtu = 1500
let max_payload = mtu - header_bytes
let ctrl_bytes = 64

let uid_counter = ref 0
let live = -2

(* --- arena --------------------------------------------------------- *)

(* Placeholder for an empty queue's dequeue; never routed, never
   pooled. Built literally rather than via [make] so it does not
   consume a uid or an id. *)
let dummy =
  { id = -1; uid = -1; flow = -1; src = -1; dst = -1; seq = -1;
    payload = 0; wire = 0; prio = 0; kind = Ctrl; loop = H;
    ecn_capable = false; ecn_ce = false; trimmed = false;
    sel_drop = false; hw0 = 0; hw1 = 0; hw2 = 0; hw3 = 0;
    hflag = false; tel_n = 0; tel = [||];
    free_link = live }

(* [arena.(id)] is the record with that id, for [id < arena_len];
   [free_head] starts the chain of free ids. *)
let arena = ref [||]
let arena_len = ref 0
let free_head = ref (-1)
let free_n = ref 0

let pool_size () = !free_n

(* Reset per run (threaded through [Context.of_topology], and again when
   [Runner.run] returns). Restarting the uid sequence makes rerunning
   an experiment in the same process byte-identical to the first run —
   uids feed the per-packet spraying hash. Dropping the arena lets the
   run's packets, stranded ones included, be collected. *)
let reset () =
  uid_counter := 0;
  arena := [||];
  arena_len := 0;
  free_head := -1;
  free_n := 0

let of_id id =
  if id < 0 || id >= !arena_len then
    invalid_arg (Printf.sprintf "Packet.of_id: no packet %d" id);
  Array.unsafe_get !arena id

(* The arena's record for its id, and not on the free list. *)
let is_current p =
  p.id >= 0 && p.id < !arena_len && Array.unsafe_get !arena p.id == p
  && p.free_link = live

let release p =
  if p != dummy then begin
    if not (is_current p) then
      (* freeing it would corrupt the free list *)
      invalid_arg
        (Printf.sprintf
           "Packet.release: double release, or not the arena's record \
            (uid %d)" p.uid);
    (* poison: a reader holding on to this packet now sees nonsense
       ids instead of silently-recycled fields *)
    p.flow <- min_int; p.src <- min_int; p.dst <- min_int;
    p.seq <- min_int;
    p.hw0 <- min_int; p.hw1 <- min_int; p.hw2 <- min_int;
    p.hw3 <- min_int; p.hflag <- true;
    p.free_link <- !free_head;
    free_head := p.id;
    incr free_n
  end

let wire_of kind payload =
  match kind with
  | Data -> header_bytes + payload
  | Ack | Grant | Pull | Nack | Ctrl -> ctrl_bytes

(* A fresh record with the next id, for an empty free list: kept out
   of line so [acquire]'s recycling path stays small where it is
   inlined. *)
let[@inline never] grow_arena () =
  let id = !arena_len in
  let p = { dummy with id } in   (* its own id; [acquire] sets the rest *)
  if id = Array.length !arena then begin
    let bigger = Array.make (Int.max 256 (2 * id)) dummy in
    Array.blit !arena 0 bigger 0 id;
    arena := bigger
  end;
  Array.unsafe_set !arena id p;
  arena_len := id + 1;
  p

let next_uid () =
  incr uid_counter;
  !uid_counter

let acquire ~uid ~flow ~src ~dst ~seq ~payload ~wire ~prio ~kind ~loop
    ~ecn_capable ~ecn_ce ~trimmed ~sel_drop =
  let id = !free_head in
  let p =
    if id >= 0 then begin
      let p = Array.unsafe_get !arena id in
      free_head := p.free_link;
      decr free_n;
      p
    end else grow_arena ()
  in
  p.free_link <- live;
  p.uid <- uid; p.flow <- flow; p.src <- src; p.dst <- dst;
  p.seq <- seq; p.payload <- payload; p.wire <- wire;
  p.prio <- prio; p.kind <- kind; p.loop <- loop;
  p.ecn_capable <- ecn_capable; p.ecn_ce <- ecn_ce; p.trimmed <- trimmed;
  p.sel_drop <- sel_drop; p.hw0 <- 0; p.hw1 <- 0; p.hw2 <- 0;
  p.hw3 <- 0; p.hflag <- false; p.tel_n <- 0;
  p

let make ?(seq = -1) ?(payload = 0) ?(prio = 0) ?(loop = H)
    ?(ecn_capable = false) ?(sel_drop = false) ~flow ~src ~dst kind =
  acquire ~uid:(next_uid ()) ~flow ~src ~dst ~seq ~payload
    ~wire:(wire_of kind payload) ~prio ~kind ~loop ~ecn_capable
    ~ecn_ce:false ~trimmed:false ~sel_drop

let made () = !uid_counter
let records () = !arena_len

(* --- inband telemetry ---------------------------------------------- *)

let tel_count p = p.tel_n

let tel_buffer p =
  if Array.length p.tel = 0 then p.tel <- Array.make (tel_cap * tel_stride) 0;
  p.tel

let tel_push p ~qlen ~tx_bytes ~ts ~rate =
  if p.tel_n < tel_cap then begin
    let b = p.tel_n * tel_stride in
    let tel = tel_buffer p in
    Array.unsafe_set tel b qlen;
    Array.unsafe_set tel (b + 1) tx_bytes;
    Array.unsafe_set tel (b + 2) ts;
    Array.unsafe_set tel (b + 3) rate;
    p.tel_n <- p.tel_n + 1
  end

let tel_qlen p i = p.tel.(i * tel_stride)
let tel_tx_bytes p i = p.tel.((i * tel_stride) + 1)
let tel_ts p i = p.tel.((i * tel_stride) + 2)
let tel_rate p i = p.tel.((i * tel_stride) + 3)

let tel_copy ~src ~dst =
  if src.tel_n > 0 then
    Array.blit src.tel 0 (tel_buffer dst) 0 (src.tel_n * tel_stride);
  dst.tel_n <- src.tel_n

(* Segmentation helper: number of [max_payload]-sized segments needed to
   carry [bytes], with a final short segment. *)
let segments_of_bytes bytes =
  if bytes <= 0 then 0 else (bytes + max_payload - 1) / max_payload
