(* Binary min-heap of ints keyed by [(key, tie)] pairs.

   The secondary [tie] key is an insertion sequence number supplied by
   the caller, which makes the pop order of equal-time events
   deterministic (FIFO within a timestamp). The payload is an int (the
   scheduler stores slab slot numbers), so the three parallel arrays
   hold no pointers: every store is a plain word write, with no write
   barrier and nothing for the GC to scan.

   The sift loops are hole-based: instead of repeatedly swapping the
   moving element with its neighbour (three loads + three stores per
   level, per array), the element is held aside, parents/children are
   shifted into the hole, and the element lands exactly once. Array
   accesses inside the sifts use [Array.unsafe_*] — every index is
   derived from [size], which the heap maintains itself. *)

type t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable vals : int array;
  mutable size : int;
}

(* Storage is allocated on the first push: a scheduler creates two
   heaps per run and a short run may never touch its overflow heap. *)
let create () = { keys = [||]; ties = [||]; vals = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Double the arrays, from 64 entries, as the scheduler's slab does. *)
let grow t =
  let n = Array.length t.keys in
  let size = Int.max 64 (2 * n) in
  let extend a =
    let b = Array.make size 0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys;
  t.ties <- extend t.ties;
  t.vals <- extend t.vals

(* Move the hole at [i] towards the root until [(key, tie)] fits,
   shifting losing parents down, then drop the element in. *)
let sift_up t i ~key ~tie v =
  let keys = t.keys and ties = t.ties and vals = t.vals in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys parent in
    if key < pk
    || (key = pk && tie < Array.unsafe_get ties parent) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set ties !i (Array.unsafe_get ties parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set ties !i tie;
  Array.unsafe_set vals !i v

(* Sink the hole at [i] until both children lose to [(key, tie)],
   shifting winning children up, then drop the element in. *)
let sift_down t i ~key ~tie v =
  let keys = t.keys and ties = t.ties and vals = t.vals in
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      (* smaller of the two children *)
      let c =
        if r < size then begin
          let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
          if rk < lk
          || (rk = lk
              && Array.unsafe_get ties r < Array.unsafe_get ties l)
          then r else l
        end else l
      in
      let ck = Array.unsafe_get keys c in
      if ck < key || (ck = key && Array.unsafe_get ties c < tie) then begin
        Array.unsafe_set keys !i ck;
        Array.unsafe_set ties !i (Array.unsafe_get ties c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end else continue := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set ties !i tie;
  Array.unsafe_set vals !i v

let push t ~key ~tie v =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  t.size <- t.size + 1;
  sift_up t i ~key ~tie v

(* Non-allocating top access for hot loops. [max_int] on an empty heap
   spares callers an [is_empty] call: neither is inlined into another
   module. *)
let top_key t = if t.size = 0 then max_int else Array.unsafe_get t.keys 0

(* Remove the root (the heap is nonempty) and return its value. *)
let remove_top t =
  let v = Array.unsafe_get t.vals 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t 0 ~key:(Array.unsafe_get t.keys last)
      ~tie:(Array.unsafe_get t.ties last) (Array.unsafe_get t.vals last);
  v

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  remove_top t

let pop_upto t limit =
  if t.size = 0 || Array.unsafe_get t.keys 0 > limit then -1
  else remove_top t

(* Keep only the elements satisfying [f], then rebuild the heap
   property bottom-up. Relative (key, tie) order of survivors is
   untouched, so pop order stays deterministic. *)
let filter_in_place t ~f =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if f t.vals.(i) then begin
      t.keys.(!j) <- t.keys.(i);
      t.ties.(!j) <- t.ties.(i);
      t.vals.(!j) <- t.vals.(i);
      incr j
    end
  done;
  t.size <- !j;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i ~key:t.keys.(i) ~tie:t.ties.(i) t.vals.(i)
  done
