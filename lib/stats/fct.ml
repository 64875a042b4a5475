(* Flow-completion-time bookkeeping.

   Every completed flow reports one [record]; the collector computes
   the metrics the paper reports for each figure: overall average FCT,
   average and 99th-percentile FCT of (0,100KB] small flows, and the
   average FCT of (100KB, inf) large flows. *)

open Ppt_engine

type record = {
  flow : int;
  size : int;               (* bytes *)
  start : Units.time;
  finish : Units.time;
  retrans : int;            (* retransmitted segments *)
  hcp_payload : int;        (* payload bytes sent by the primary loop *)
  lcp_payload : int;        (* payload bytes sent by a low-prio loop *)
  hcp_delivered : int;      (* fresh payload accepted at the receiver *)
  lcp_delivered : int;
}

(* [Units.to_ms], spelled out: the folds below then call nothing across
   modules, so no result is boxed even where [-opaque] stops inlining
   (the dev profile). *)
let[@inline] fct_ms r = float_of_int (r.finish - r.start) /. 1e6

(* Every record in [records], newest first; the payload totals are kept
   as records arrive, since int sums do not depend on their order. *)
type t = {
  mutable records : record list;
  mutable n : int;
  mutable retrans : int;
  mutable hcp_payload : int;
  mutable lcp_payload : int;
  mutable hcp_delivered : int;
  mutable lcp_delivered : int;
}

let create () =
  { records = []; n = 0; retrans = 0; hcp_payload = 0; lcp_payload = 0;
    hcp_delivered = 0; lcp_delivered = 0 }

let add t (r : record) =
  if r.finish < r.start then invalid_arg "Fct.add: finish before start";
  t.records <- r :: t.records;
  t.n <- t.n + 1;
  t.retrans <- t.retrans + r.retrans;
  t.hcp_payload <- t.hcp_payload + r.hcp_payload;
  t.lcp_payload <- t.lcp_payload + r.lcp_payload;
  t.hcp_delivered <- t.hcp_delivered + r.hcp_delivered;
  t.lcp_delivered <- t.lcp_delivered + r.lcp_delivered

let count t = t.n
let records t = t.records
let hcp_delivered t = t.hcp_delivered
let lcp_delivered t = t.lcp_delivered

let check_p p =
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Fct.percentile: p must be in [0, 100]"

(* Percentiles interpolate between two order statistics: rank
   p/100*(n-1), linear between the i-th and (i+1)-th smallest of the n
   values, i = floor rank. Every percentile this module reports goes
   through here, and none keeps a sample of every value: a fold offers
   each value to a min-heap (in [Float.compare] order, the order
   [Array.sort compare] gives) of the largest ones seen, and the
   percentile pops that heap down to order statistic i.

   The heap needs the n - i largest values. With q = p/100,
   n - floor (q*(n-1)) = ceil ((1-q)*n + q) <= ceil ((1-q)*n) + 1, and
   one slot more covers the float rounding of the rank and of this
   bound. The bound does not shrink as n grows, so one sized from the
   count known before a pass (every record, or every value) holds for
   any bin of them. *)
let heap p count =
  check_p p;
  let tail = (1. -. (p /. 100.)) *. float_of_int count in
  Array.make (Int.min count (int_of_float (Float.ceil tail) + 2)) 0.

(* [Float.compare x y < 0], NaN below every other value, in plain
   comparisons: the folds ran faster with these than with
   [Float.compare]. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* Min-heap primitives on [a.(0 .. len-1)]; they take no float
   argument, so calling them boxes nothing. *)
let sift_up (a : float array) j =
  let x = a.(j) and j = ref j in
  while !j > 0 && lt x a.((!j - 1) / 2) do
    a.(!j) <- a.((!j - 1) / 2);
    j := (!j - 1) / 2
  done;
  a.(!j) <- x

let sift_down (a : float array) len j =
  let x = a.(j) and j = ref j and moving = ref true in
  while !moving do
    let c = (2 * !j) + 1 in
    let c =
      if c + 1 < len && lt a.(c + 1) a.(c) then c + 1 else c
    in
    if c < len && lt a.(c) x then begin
      a.(!j) <- a.(c);
      j := c
    end
    else moving := false
  done;
  a.(!j) <- x

(* Offer [x], the value after [seen] others, to the heap [a]: kept
   while the heap has room, else in place of the least value when it
   is larger. Inlined into each fold, so [x] is never boxed. *)
let[@inline] offer a seen x =
  if seen < Array.length a then begin
    a.(seen) <- x;
    sift_up a seen
  end
  else if lt a.(0) x then begin
    a.(0) <- x;
    sift_down a (Array.length a) 0
  end

(* Remove the least of [a.(0 .. len-1)]. *)
let pop a len =
  a.(0) <- a.(len - 1);
  sift_down a (len - 1) 0

(* The percentile p of the [n] values offered to [a], which it empties. *)
let heap_percentile p a n =
  if n = 0 then nan
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float rank in
    let len = ref (Int.min n (Array.length a)) in
    (* a.(0) is order statistic n - !len *)
    assert (i >= n - !len);
    for _ = n - !len + 1 to i do
      pop a !len;
      decr len
    done;
    let x = a.(0) in
    if i >= n - 1 then x
    else begin
      pop a !len;
      x +. ((a.(0) -. x) *. (rank -. float_of_int i))
    end
  end

let percentile_of_values p xs =
  let n = List.length xs in
  let top = heap p n and k = ref 0 and xs = ref xs in
  while !xs != [] do
    match !xs with
    | [] -> ()
    | x :: rest ->
      offer top !k x;
      incr k;
      xs := rest
  done;
  heap_percentile p top n

(* The statistics below are folds of one shape: a while loop down the
   record list, newest first, so every float sum adds the same terms in
   the same order as a [List.fold_left] over the filtered list would,
   and no closure captures an accumulator, so the float refs stay
   unboxed. A percentile offers its values to one heap sized from
   [count t]. *)

let[@inline] in_bin ~lo ~hi r = r.size > lo && r.size <= hi

let avg ?(lo = 0) ?(hi = max_int) t =
  let sum = ref 0. and k = ref 0 and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      if in_bin ~lo ~hi r then begin
        sum := !sum +. fct_ms r;
        incr k
      end;
      rs := rest
  done;
  if !k = 0 then nan else !sum /. float_of_int !k

let percentile ?(lo = 0) ?(hi = max_int) t p =
  let top = heap p t.n and k = ref 0 and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      if in_bin ~lo ~hi r then begin
        offer top !k (fct_ms r);
        incr k
      end;
      rs := rest
  done;
  heap_percentile p top !k

type summary = {
  flows : int;
  overall_avg : float;      (* ms *)
  small_avg : float;
  small_p99 : float;
  large_avg : float;
  total_retrans : int;
  hcp_bytes : int;
  lcp_bytes : int;
}

(* The paper's small/large boundary. *)
let cutoff = 100_000

let summarize t =
  let all = ref 0. and n_all = ref 0 in
  let small = ref 0. and n_small = ref 0 in
  let large = ref 0. and n_large = ref 0 in
  let top = heap 99. t.n and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      let ms = fct_ms r in
      if r.size > 0 then begin
        all := !all +. ms;
        incr n_all
      end;
      if in_bin ~lo:0 ~hi:cutoff r then begin
        small := !small +. ms;
        offer top !n_small ms;
        incr n_small
      end;
      if r.size > cutoff then begin
        large := !large +. ms;
        incr n_large
      end;
      rs := rest
  done;
  let mean sum k = if k = 0 then nan else sum /. float_of_int k in
  { flows = t.n;
    overall_avg = mean !all !n_all;
    small_avg = mean !small !n_small;
    small_p99 = heap_percentile 99. top !n_small;
    large_avg = mean !large !n_large;
    total_retrans = t.retrans;
    hcp_bytes = t.hcp_payload;
    lcp_bytes = t.lcp_payload }

(* Normalized FCT (slowdown), as Homa-style papers report it: a flow's
   completion time over [tx_time rate size + base_rtt], its payload's
   serialization at [rate] plus [base_rtt]; the callers pass the edge
   rate and the fabric-wide base RTT. That is neither the flow's FCT on
   an idle network nor a lower bound on it: FCT ends one way, when the
   receiver holds the last byte, and an intra-rack flow crosses no core
   link the base RTT counts, so a flow can read below 1. ROADMAP item
   11 has the exact idle FCT that should replace it. *)
let[@inline] slowdown ~rate ~base_rtt r =
  let ideal =
    Units.tx_time ~rate ~bytes:r.size + base_rtt
  in
  float_of_int (r.finish - r.start) /. float_of_int (Int.max 1 ideal)

let slowdown_stats ?(lo = 0) ?(hi = max_int) ~rate ~base_rtt t =
  let sum = ref 0. and k = ref 0 in
  let top = heap 99. t.n and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      if in_bin ~lo ~hi r then begin
        let x = slowdown ~rate ~base_rtt r in
        sum := !sum +. x;
        offer top !k x;
        incr k
      end;
      rs := rest
  done;
  if !k = 0 then (nan, nan)
  else
    (* interpolated, like every other percentile here — the former
       index formula [0.99 * n] degenerated to the sample maximum for
       n <= 100 *)
    (!sum /. float_of_int !k, heap_percentile 99. top !k)

(* Jain's fairness index over per-flow average throughput (bytes per
   unit of flow lifetime): 1.0 = perfectly fair. *)
let jain_fairness t =
  let s = ref 0. and s2 = ref 0. and k = ref 0 and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      let d = r.finish - r.start in
      if d > 0 then begin
        let x = float_of_int r.size /. float_of_int d in
        s := !s +. x;
        s2 := !s2 +. (x *. x);
        incr k
      end;
      rs := rest
  done;
  if !k = 0 || !s2 = 0. then nan
  else !s *. !s /. (float_of_int !k *. !s2)
