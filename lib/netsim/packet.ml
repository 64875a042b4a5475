(* Packets are the unit of everything the simulator moves.

   [src]/[dst] are host node ids; a packet is routed towards [dst] and
   delivered to the endpoint registered there for [flow]. Transports
   attach protocol-specific information through the extensible [meta]
   variant so the network layer stays protocol-agnostic.

   Packets are pooled. [make] recycles a record from a process-global
   free list (re-initialising every mutable field) and [release]
   returns one to it, so the steady-state datapath allocates nothing
   per packet. Ownership is linear and documented in HACKING.md
   ("Allocation discipline"):

   - the transport that [make]s a packet owns it until [Net.send];
   - from then on the fabric owns it: it lives in port queues and
     in-flight timer closures;
   - at a sink (delivery, drop, fault kill, undeliverable) the fabric
     calls [release] — delivery handlers only borrow the packet for
     the duration of the call and must not retain it;
   - packets never handed to [Net.send] stay owned by their creator
     (tests that exercise [Prio_queue] directly just let the GC have
     them; [release] is an optimisation, not an obligation).

   [set_pooling false] turns the free list off (every [make] is a
   fresh allocation, [release] a no-op) — golden tests compare traces
   with pooling on and off to prove recycling is invisible. Debug mode
   ([PPT_POOL_DEBUG=1] or [set_debug true]) checks double-release and
   use-after-release and poisons released packets so stale readers
   fail loudly. *)

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

type meta = ..
type meta += No_meta

(* Fixed-capacity inband-telemetry snapshot (HPCC): one entry per hop,
   four ints per entry (queue bytes, cumulative tx bytes, timestamp,
   line rate) packed into a single strided array that lives with the
   pooled packet, so stamping a hop is four stores — no list cells. *)
let tel_cap = 8
let tel_stride = 4

type t = {
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
  mutable meta : meta;
  mutable tel_n : int;      (* hops stamped into [tel] *)
  tel : int array;          (* tel_cap x tel_stride, first hop first *)
  mutable in_pool : bool;   (* currently on the free list *)
}

let header_bytes = 40
let mtu = 1500
let max_payload = mtu - header_bytes
let ctrl_bytes = 64

let uid_counter = ref 0

(* Reset per run (threaded through [Context.create]) so back-to-back
   in-process runs hand out identical uid sequences — uids feed the
   per-packet spraying hash, so this is what makes rerunning an
   experiment in the same process byte-identical to the first run. *)
let reset_uids () = uid_counter := 0

(* --- pool ---------------------------------------------------------- *)

let pooling = ref (Sys.getenv_opt "PPT_NO_POOL" = None)
let debug =
  ref (match Sys.getenv_opt "PPT_POOL_DEBUG" with
      | Some ("1" | "true" | "yes") -> true
      | Some _ | None -> false)

let set_pooling b = pooling := b
let pooling_enabled () = !pooling
let set_debug b = debug := b

(* Placeholder for unused queue and pool slots; never routed, never
   pooled. Built literally rather than via [make] so it does not
   consume a uid. *)
let dummy =
  { uid = -1; flow = -1; src = -1; dst = -1; seq = -1; payload = 0;
    wire = 0; prio = 0; kind = Ctrl; loop = H; ecn_capable = false;
    ecn_ce = false; trimmed = false; sel_drop = false; meta = No_meta;
    tel_n = 0; tel = Array.make (tel_cap * tel_stride) 0;
    in_pool = false }

let pool = ref (Array.make 256 dummy)
let pool_len = ref 0

let pool_size () = !pool_len

let release p =
  if !pooling && p != dummy then begin
    if !debug then begin
      if p.in_pool then
        invalid_arg
          (Printf.sprintf "Packet.release: double release (uid %d)" p.uid);
      (* poison: a reader holding on to this packet now sees nonsense
         ids instead of silently-recycled fields *)
      p.flow <- min_int; p.src <- min_int; p.dst <- min_int;
      p.seq <- min_int
    end;
    p.in_pool <- true;
    p.meta <- No_meta;     (* do not retain protocol payloads *)
    let arr = !pool in
    let n = !pool_len in
    let arr =
      if n < Array.length arr then arr
      else begin
        let bigger = Array.make (2 * n) dummy in
        Array.blit arr 0 bigger 0 n;
        pool := bigger;
        bigger
      end
    in
    arr.(n) <- p;
    pool_len := n + 1
  end

let assert_live p =
  if p.in_pool then
    invalid_arg
      (Printf.sprintf "Packet: use after release (uid %d)" p.uid)

let wire_of kind payload =
  match kind with
  | Data -> header_bytes + payload
  | Ack | Grant | Pull | Nack | Ctrl -> ctrl_bytes

let make ?(seq = -1) ?(payload = 0) ?(prio = 0) ?(loop = H)
    ?(ecn_capable = false) ?(sel_drop = false) ?(meta = No_meta)
    ~flow ~src ~dst kind =
  incr uid_counter;
  let n = !pool_len in
  if !pooling && n > 0 then begin
    let arr = !pool in
    let n = n - 1 in
    pool_len := n;
    (* Clear the slot: the free list outlives a run, and a caller may
       drain it with [make] expecting the packets to be collected. *)
    let p = arr.(n) in
    arr.(n) <- dummy;
    if !debug && not p.in_pool then
      invalid_arg "Packet.make: free list holds a live packet";
    p.in_pool <- false;
    p.uid <- !uid_counter; p.flow <- flow; p.src <- src; p.dst <- dst;
    p.seq <- seq; p.payload <- payload; p.wire <- wire_of kind payload;
    p.prio <- prio; p.kind <- kind; p.loop <- loop;
    p.ecn_capable <- ecn_capable; p.ecn_ce <- false; p.trimmed <- false;
    p.sel_drop <- sel_drop; p.meta <- meta; p.tel_n <- 0;
    p
  end else
    { uid = !uid_counter; flow; src; dst; seq; payload;
      wire = wire_of kind payload; prio; kind; loop; ecn_capable;
      ecn_ce = false; trimmed = false; sel_drop; meta; tel_n = 0;
      tel = Array.make (tel_cap * tel_stride) 0; in_pool = false }

(* --- inband telemetry ---------------------------------------------- *)

let tel_count p = p.tel_n

let tel_push p ~qlen ~tx_bytes ~ts ~rate =
  if p.tel_n < tel_cap then begin
    let b = p.tel_n * tel_stride in
    let tel = p.tel in
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
let tel_clear p = p.tel_n <- 0

let tel_copy ~src ~dst =
  Array.blit src.tel 0 dst.tel 0 (src.tel_n * tel_stride);
  dst.tel_n <- src.tel_n

let is_data p = p.kind = Data

let pp_kind ppf = function
  | Data -> Fmt.string ppf "data"
  | Ack -> Fmt.string ppf "ack"
  | Grant -> Fmt.string ppf "grant"
  | Pull -> Fmt.string ppf "pull"
  | Nack -> Fmt.string ppf "nack"
  | Ctrl -> Fmt.string ppf "ctrl"

let pp ppf p =
  Fmt.pf ppf "@[<h>%a flow=%d %d->%d seq=%d wire=%dB prio=%d%s%s@]"
    pp_kind p.kind p.flow p.src p.dst p.seq p.wire p.prio
    (if p.ecn_ce then " CE" else "")
    (if p.trimmed then " trimmed" else "")

(* Segmentation helper: number of [max_payload]-sized segments needed to
   carry [bytes], with a final short segment. *)
let segments_of_bytes bytes =
  if bytes <= 0 then 0 else (bytes + max_payload - 1) / max_payload

let segment_payload ~flow_bytes ~seq =
  let nseg = segments_of_bytes flow_bytes in
  assert (seq >= 0 && seq < nseg);
  if seq = nseg - 1 then flow_bytes - (nseg - 1) * max_payload
  else max_payload
