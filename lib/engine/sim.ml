(* Discrete-event simulation core: a clock plus a calendar-queue
   scheduler.

   Every event is a handler with an int argument. Equal-time events
   fire in scheduling order (every event carries an insertion sequence
   number used as a tie-break), which keeps runs deterministic: the pop
   order is the total order on [(time, tie)] regardless of which
   internal tier an event happens to sit in.

   The scheduler is tiered for the timer mix a packet-level simulation
   produces — millions of short-horizon timers (serialization ticks,
   propagation, paced sends, ACK turnarounds) plus a sparse population
   of far-future retransmission timeouts:

   - the current bucket covers [cur_base, cur_base + bucket_width):
     one list per nanosecond, indexed by [key - cur_base] and kept
     sorted by tie, so a pop takes the head of the first nonempty list
     and needs no comparison at all. It is what [run] pops, and what
     same/near-time reschedules during a callback fall into.
   - a timing wheel of [n_buckets] unsorted buckets, each covering
     [bucket_width] ns, holds events in [cur_base + bucket_width,
     wheel_end); insertion is O(1). The window slides one bucket at a
     time as the clock advances, or hops directly to the next event
     when the wheel runs empty.
   - an overflow binary heap holds everything at or past [wheel_end]
     (RTOs, experiment-horizon probes); events migrate into the wheel
     as the window reaches them.
   The window never passes the horizon of [run ~until], so the clock
   never sits below [cur_base] and every time lies in one of the tiers.

   Storage is a slab: a pending event is a slot number, and its fire
   time, tie, packed argument and (for a closure) callback live in
   parallel arrays indexed by slot. Free slots are chained through
   [next] into a free list; a wheel bucket and a current-bucket list
   are chains of slots through the same [next] array, so the wheel and
   the current bucket are plain [int array]s of chain heads; the
   overflow heap stores slot numbers ([Heap] is int-only). The slab
   doubles when it runs out of slots; the wheel and the current
   bucket's lists are allocated on the first hop into the wheel.

   Every event is a handler id and an int argument, packed into one
   int per slot: a handler [int -> unit] is registered once, and
   posting it stores no pointer and allocates nothing. A closure event
   is the built-in handler [closure] with its own slot as the
   argument, its callback stored in [fn] and cleared when it fires or
   is cancelled, so a queue slot never keeps a dead callback alive.
   Scheduling returns an int ticket, the slot and (the low bits of)
   its tie; firing or cancelling overwrites the slot's packed argument
   with the [dead] handler id, so a ticket whose event has fired, was
   cancelled or whose slot now holds another event is inert. A run
   can also reserve a block of ties up front and post with them later,
   which lets it keep only the next of many pre-ordered events queued
   while they still pop exactly where scheduling them all up front
   would have put them.

   A cancelled event stays queued but is skipped when popped.
   Cancelled-and-still-queued events are counted, and once they
   outnumber live ones (past a floor) the whole structure is compacted
   in place so churny retransmit timers cannot bloat the queue and get
   re-sifted forever. *)

(* Bucket geometry: 4096 buckets of 64 ns cover ~262 us, past the
   per-hop timer horizon of a 10-400G fabric. The width is sized to
   the densest traffic measured: the 40/100G web-search fabric
   (fig12) fires an event every ~2.4 ns, so a 64 ns bucket spreads
   ~27 events over its per-nanosecond lists; the 10G memcached incast
   fires one every ~175 ns, so most of its buckets are empty and are
   skipped, and a nonempty one mostly holds a single event. *)
let log_bucket = 6
let bucket_width = 1 lsl log_bucket
let n_buckets = 4096
let bucket_mask = n_buckets - 1
let wheel_span = n_buckets * bucket_width

(* Compact only past this many dead timers, so small runs never pay. *)
let compact_min = 1024

(* A slot's [arg] is [(x lsl handler_bits) lor handler]. *)
type handler = int

let handler_bits = 8
let handler_mask = (1 lsl handler_bits) - 1

(* Handler 0 is the placeholder a handler field holds until the real
   handler is registered; posting it is a bug. Handler 1 is never
   called: it marks a slot whose event was cancelled (while it is
   still queued) or has fired. Handler 2 fires the closure in [fn] of
   the slot it is given. *)
let no_handler = 0
let dead = 1
let closure = 2
let unregistered (_ : int) = invalid_arg "Sim.post: no_handler was posted"

(* A ticket is [(tie lsl slot_bits) lor slot], the tie cut to the bits
   left so the ticket stays non-negative: two events would have to be
   2^36 ties apart on one slot for a stale ticket to match. *)
let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let tie_mask = (1 lsl (Sys.int_size - 1 - slot_bits)) - 1

type t = {
  mutable now : Units.time;
  (* the slab, indexed by slot *)
  mutable key : int array;        (* absolute fire time *)
  mutable ties : int array;       (* insertion sequence number *)
  mutable next : int array;       (* chain or free list; -1 ends *)
  mutable arg : int array;        (* packed handler and argument *)
  mutable fn : (unit -> unit) array;  (* closure slots; [ignore] else *)
  mutable free : int;             (* free-list head, -1 when empty *)
  mutable heads : int array;      (* bucket chain heads; [||] until used *)
  (* the current bucket: list heads per nanosecond offset, [||] until
     the wheel is first used; -1 when the list is empty *)
  mutable lhead : int array;
  mutable cur_count : int;        (* timers in the lists *)
  mutable scan : int;             (* every offset below is empty *)
  mutable cur_base : int;         (* <= [now] outside [run]'s refill *)
  overflow : Heap.t;
  mutable wheel_count : int;
  mutable wheel_end : int;  (* wheel covers [cur_base + width, wheel_end) *)
  mutable cancels : int;    (* cancelled timers still queued *)
  mutable compaction_runs : int;
  mutable last_tie : int;
  mutable reserved : (int * int) list;  (* reserved tie ranges, inclusive *)
  mutable handlers : (int -> unit) array;  (* by handler id *)
  mutable running : bool;
  mutable processed : int;
}

(* Slab, wheel and current-bucket arrays grow on demand, so [create]
   allocates only the record and an empty heap. The window starts
   empty ([wheel_end = cur_base + width = 0]): every timer scheduled
   before the clock first runs goes to the overflow heap, and the
   first [refill] hops the window to the earliest one and allocates
   the bucket heads. A run's set-up so never pays for them. *)
let create () =
  let t =
    { now = 0;
      key = [||]; ties = [||]; next = [||]; arg = [||]; fn = [||];
      free = -1;
      heads = [||];
      lhead = [||];
      cur_count = 0;
      scan = bucket_width;
      cur_base = - bucket_width;
      overflow = Heap.create ();
      wheel_count = 0;
      wheel_end = 0;
      cancels = 0;
      compaction_runs = 0;
      last_tie = 0; reserved = [];
      handlers = [| unregistered; unregistered; unregistered |];
      running = false; processed = 0 }
  in
  (* The slot was freed before the call, so the callback may reuse it. *)
  t.handlers.(closure) <- (fun s ->
      let f = Array.unsafe_get t.fn s in
      Array.unsafe_set t.fn s ignore;
      f ());
  t

let now t = t.now
let events_processed t = t.processed

let scheduled t = t.cur_count + t.wheel_count + Heap.length t.overflow

let pending t = scheduled t - t.cancels
let cancelled_pending t = t.cancels
let compactions t = t.compaction_runs

(* Double the slab (64 slots at first) and chain the new slots onto
   the free list. *)
let grow_slab t =
  let n = Array.length t.key in
  let size = Int.max 64 (2 * n) in
  if size > 1 lsl slot_bits then
    failwith "Sim: more pending events than a ticket can address";
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.key <- extend t.key 0;
  t.ties <- extend t.ties 0;
  t.next <- extend t.next 0;
  t.arg <- extend t.arg 0;
  t.fn <- extend t.fn ignore;
  for i = n to size - 2 do t.next.(i) <- i + 1 done;
  t.next.(size - 1) <- t.free;
  t.free <- n

let alloc_slot t =
  if t.free < 0 then grow_slab t;
  let s = t.free in
  t.free <- Array.unsafe_get t.next s;
  s

(* Freeing stores no pointer: a cancel clears a closure's [fn] at
   once, and a firing closure clears it before its callback runs. *)
let free_slot t s =
  Array.unsafe_set t.next s t.free;
  t.free <- s

let bucket_push t s =
  let b = (Array.unsafe_get t.key s lsr log_bucket) land bucket_mask in
  Array.unsafe_set t.next s (Array.unsafe_get t.heads b);
  Array.unsafe_set t.heads b s;
  t.wheel_count <- t.wheel_count + 1

(* Put slot [s] into the list of offset [off] of the current bucket,
   keeping the list in tie order: at the head if the list is empty or
   [s] has the smallest tie, else before the first larger tie. A
   drained bucket chain comes newest first (pushes go to a chain's
   head, and timers migrated from the overflow heap are older than any
   pushed after them), so its timers go at the head. *)
let cur_insert t off s =
  let ties = t.ties and next = t.next and lhead = t.lhead in
  let tie = Array.unsafe_get ties s in
  let h = Array.unsafe_get lhead off in
  if h < 0 || tie < Array.unsafe_get ties h then begin
    Array.unsafe_set next s h;
    Array.unsafe_set lhead off s
  end else begin
    let p = ref h and q = ref (Array.unsafe_get next h) in
    while !q >= 0 && Array.unsafe_get ties !q < tie do
      p := !q;
      q := Array.unsafe_get next !q
    done;
    Array.unsafe_set next s !q;
    Array.unsafe_set next !p s
  end;
  t.cur_count <- t.cur_count + 1;
  if off < t.scan then t.scan <- off

(* [key] is at or past [now], so at or past [cur_base].
   [off lsr log_bucket = 0] is [0 <= off < bucket_width] in one test:
   a negative offset shifts to a huge one. *)
let insert t s ~key ~tie =
  let off = key - t.cur_base in
  if off lsr log_bucket = 0 then cur_insert t off s
  else if key < t.wheel_end then bucket_push t s
  else Heap.push t.overflow ~key ~tie s

(* A queued slot is cancelled exactly when it is marked [dead]. *)
let is_cancelled t s = Array.unsafe_get t.arg s land handler_mask = dead

(* Unlink the cancelled timers of the chain from [head], freeing their
   slots, and keep the order of the rest. Returns the new head and adds
   the number dropped to [dropped]. *)
let filter_chain t head ~dropped =
  let first = ref (-1) and last = ref (-1) and s = ref head in
  while !s >= 0 do
    let x = !s in
    s := t.next.(x);
    if is_cancelled t x then begin
      free_slot t x;
      incr dropped
    end else begin
      if !last < 0 then first := x else t.next.(!last) <- x;
      last := x
    end
  done;
  if !last >= 0 then t.next.(!last) <- -1;
  !first

(* Drop every cancelled timer still queued and free its slot.
   Survivors keep their (key, tie) ordering, so pop order is
   unaffected. *)
let compact t =
  let keep s = (not (is_cancelled t s)) || (free_slot t s; false) in
  Heap.filter_in_place t.overflow ~f:keep;
  let dropped = ref 0 in
  for off = 0 to Array.length t.lhead - 1 do
    t.lhead.(off) <- filter_chain t t.lhead.(off) ~dropped
  done;
  t.cur_count <- t.cur_count - !dropped;
  dropped := 0;
  for b = 0 to Array.length t.heads - 1 do
    t.heads.(b) <- filter_chain t t.heads.(b) ~dropped
  done;
  t.wheel_count <- t.wheel_count - !dropped;
  t.cancels <- 0;
  t.compaction_runs <- t.compaction_runs + 1

(* A run registers a handful of handlers, so the table grows by one.
   Ids 0, 1 and 2 are [no_handler], [dead] and [closure]. *)
let register t f =
  let h = Array.length t.handlers in
  if h > handler_mask then
    invalid_arg "Sim.register: too many handlers for one simulator";
  t.handlers <- Array.append t.handlers [| f |];
  h

(* Queue [h x] at [at] with [tie] and return its slot. *)
let post_slot t ~at ~tie h x =
  if t.cancels >= compact_min && 2 * t.cancels > scheduled t then
    compact t;
  let s = alloc_slot t in
  Array.unsafe_set t.key s at;
  Array.unsafe_set t.ties s tie;
  Array.unsafe_set t.arg s ((x lsl handler_bits) lor h);
  insert t s ~key:at ~tie;
  s

let next_tie t =
  let tie = t.last_tie + 1 in
  t.last_tie <- tie;
  tie

let ticket ~tie s = ((tie land tie_mask) lsl slot_bits) lor s

let post t ~after h x =
  assert (after >= 0);
  let tie = next_tie t in
  ticket ~tie (post_slot t ~at:(t.now + after) ~tie h x)

(* A closure event is [closure] posted with its own slot, which is
   known only once the slot is taken. *)
let schedule_at t at fire =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: %d is in the past (now=%d)" at t.now);
  let tie = next_tie t in
  let s = post_slot t ~at ~tie closure 0 in
  Array.unsafe_set t.arg s ((s lsl handler_bits) lor closure);
  Array.unsafe_set t.fn s fire;
  ticket ~tie s

let schedule t ~after fire =
  assert (after >= 0);
  schedule_at t (t.now + after) fire

let schedule1 t ~after f x = schedule t ~after (fun () -> f x)

(* The tie identifies the event: once it fired or was cancelled the
   slot reads [dead], and once the slot is reused its tie differs. A
   cancelled closure lets go of its callback at once. *)
let cancel t ticket =
  let s = ticket land slot_mask in
  if ticket >= 0 && s < Array.length t.ties
     && Array.unsafe_get t.ties s land tie_mask = ticket lsr slot_bits
  then begin
    let h = Array.unsafe_get t.arg s land handler_mask in
    if h <> dead then begin
      if h = closure then Array.unsafe_set t.fn s ignore;
      Array.unsafe_set t.arg s dead;
      t.cancels <- t.cancels + 1
    end
  end

let reserve t n =
  if n < 0 then invalid_arg "Sim.reserve: negative count";
  let first = t.last_tie + 1 in
  if n > 0 then begin
    t.last_tie <- t.last_tie + n;
    t.reserved <- (first, t.last_tie) :: t.reserved
  end;
  first

(* [tie] is typed: left polymorphic, the comparisons would be calls to
   the generic compare on every flow start. *)
let rec is_reserved (tie : int) = function
  | [] -> false
  | (lo, hi) :: rest -> (lo <= tie && tie <= hi) || is_reserved tie rest

let post_tie t ~at ~tie h x =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Sim.post_tie: %d is in the past (now=%d)" at t.now);
  if not (is_reserved tie t.reserved) then
    invalid_arg (Printf.sprintf "Sim.post_tie: tie %d was not reserved" tie);
  ignore (post_slot t ~at ~tie h x : int)

let stop t = t.running <- false

(* Pull overflow events that now fall inside the (just extended)
   wheel window. *)
let migrate_overflow t =
  let s = ref (Heap.pop_upto t.overflow (t.wheel_end - 1)) in
  while !s >= 0 do
    bucket_push t !s;
    s := Heap.pop_upto t.overflow (t.wheel_end - 1)
  done

(* Spread the chain of bucket [b] over the current bucket's lists
   (which are empty). *)
let drain_bucket t b =
  let s = ref (Array.unsafe_get t.heads b) in
  Array.unsafe_set t.heads b (-1);
  while !s >= 0 do
    let x = !s in
    s := Array.unsafe_get t.next x;
    cur_insert t (Array.unsafe_get t.key x - t.cur_base) x;
    t.wheel_count <- t.wheel_count - 1
  done

(* Make the current bucket hold the earliest event if one is due by
   [horizon], and never make current a bucket that starts past it:
   slide the wheel window bucket by bucket, draining the first
   nonempty bucket into the current lists; if the wheel is empty, hop
   straight to the earliest overflow event's window. Empty buckets are
   stepped over in a tight loop for as long as no overflow event enters
   the window and the next bucket starts by the horizon. *)
let refill t horizon =
  (* bucket [cur_base + width] starts by the horizon while
     [wheel_end <= horizon_end] *)
  let horizon_end =
    if horizon > max_int - wheel_span then max_int else horizon + wheel_span
  in
  let continue = ref true in
  while !continue do
    let due = Heap.top_key t.overflow in
    if t.wheel_count > 0 && t.wheel_end <= horizon_end then begin
      let heads = t.heads in
      let bound = Int.min due horizon_end - bucket_width in
      let b =
        ref (((t.cur_base + bucket_width) lsr log_bucket) land bucket_mask)
      in
      while Array.unsafe_get heads !b < 0 && t.wheel_end <= bound do
        t.cur_base <- t.cur_base + bucket_width;
        t.wheel_end <- t.wheel_end + bucket_width;
        b := (!b + 1) land bucket_mask
      done;
      (* bucket [b] becomes the current bucket, and its ring position
         now represents [wheel_end, wheel_end + width) *)
      t.cur_base <- t.cur_base + bucket_width;
      t.wheel_end <- t.wheel_end + bucket_width;
      t.scan <- bucket_width;
      drain_bucket t !b;
      if due < t.wheel_end then migrate_overflow t;
      continue := t.cur_count = 0
    end
    else if t.wheel_count = 0 && Heap.length t.overflow > 0
            && due <= horizon then begin
      (* the wheel is empty until the first hop, which allocates it *)
      if Array.length t.heads = 0 then begin
        t.heads <- Array.make n_buckets (-1);
        t.lhead <- Array.make bucket_width (-1)
      end;
      t.cur_base <- ((due lsr log_bucket) lsl log_bucket) - bucket_width;
      t.wheel_end <- t.cur_base + bucket_width + wheel_span;
      migrate_overflow t
    end
    else begin
      (* Nothing is due by the horizon. Popping cancelled timers can
         leave an empty window above the clock: move it back. *)
      if scheduled t = 0 && t.cur_base > t.now then begin
        t.cur_base <- (t.now lsr log_bucket) lsl log_bucket;
        t.wheel_end <- t.cur_base + bucket_width + wheel_span
      end;
      continue := false
    end
  done

(* Remove and return the earliest timer if it is due by [horizon],
   else -1: the head of the current bucket's first nonempty list. *)
let pop_upto t horizon =
  if t.cur_count > 0 then begin
    let lhead = t.lhead in
    let off = ref t.scan in
    while Array.unsafe_get lhead !off < 0 do incr off done;
    t.scan <- !off;
    if t.cur_base + !off > horizon then -1
    else begin
      let s = Array.unsafe_get lhead !off in
      Array.unsafe_set lhead !off (Array.unsafe_get t.next s);
      t.cur_count <- t.cur_count - 1;
      s
    end
  end
  else -1

let run ?until t =
  let horizon = match until with None -> max_int | Some u -> u in
  if horizon < t.now then
    invalid_arg
      (Printf.sprintf "Sim.run: until=%d is in the past (now=%d)" horizon
         t.now);
  t.running <- true;
  let rec loop () =
    if t.running then begin
      let s = pop_upto t horizon in
      if s >= 0 then begin
        (* free the slot before the handler runs, and mark it [dead] so
           the event's ticket goes inert *)
        let a = Array.unsafe_get t.arg s in
        free_slot t s;
        let h = a land handler_mask in
        if h = dead then t.cancels <- t.cancels - 1
        else begin
          Array.unsafe_set t.arg s dead;
          t.now <- Array.unsafe_get t.key s;
          t.processed <- t.processed + 1;
          (Array.unsafe_get t.handlers h) (a asr handler_bits)
        end;
        loop ()
      end
      else if t.cur_count = 0 then begin
        refill t horizon;
        if t.cur_count > 0 then loop ()
        else if scheduled t > 0 then t.now <- horizon
      end
      else
        (* Leave the clock at the horizon; the events past it stay
           queued for a later [run] call. *)
        t.now <- horizon
    end
  in
  loop ();
  t.running <- false
