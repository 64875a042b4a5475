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

(* Reorder [a.(0 .. n-1)] so that [a.(k)] holds its k-th order
   statistic (in [Float.compare] order, the order [Array.sort compare]
   gives), with no larger element before it and no smaller one after
   it: quickselect with a median-of-three pivot and a three-way
   partition, so runs of equal values do not degrade it. *)
let select (a : float array) n k =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let x = a.(!lo) and y = a.((!lo + !hi) / 2) and z = a.(!hi) in
    let pivot =
      if Float.compare x y < 0 then
        (if Float.compare y z < 0 then y
         else if Float.compare x z < 0 then z else x)
      else if Float.compare x z < 0 then x
      else if Float.compare y z < 0 then z else y
    in
    (* [lo, lt) < pivot, [lt, i) = pivot, (gt, hi] > pivot *)
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let c = Float.compare a.(!i) pivot in
      if c < 0 then begin swap !lt !i; incr lt; incr i end
      else if c > 0 then begin swap !i !gt; decr gt end
      else incr i
    done;
    if k < !lt then hi := !lt - 1
    else if k > !gt then lo := !gt + 1
    else begin lo := k; hi := k end
  done

let check_p p =
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Fct.percentile: p must be in [0, 100]"

(* Interpolating percentile over [a.(0 .. n-1)], which it reorders:
   rank p/100*(n-1), linear between the surrounding order statistics.
   Every percentile this module reports goes through here. The i-th
   order statistic comes from [select], the (i+1)-th is the least of
   the part above it, so no sort is needed and the result is that of a
   sort. *)
let percentile_in p a n =
  check_p p;
  if n = 0 then nan
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float rank in
    if i >= n - 1 then begin
      select a n (n - 1);
      a.(n - 1)
    end else begin
      select a n i;
      let next = ref a.(i + 1) in
      for j = i + 2 to n - 1 do
        if Float.compare a.(j) !next < 0 then next := a.(j)
      done;
      let frac = rank -. float_of_int i in
      a.(i) +. ((!next -. a.(i)) *. frac)
    end
  end

let percentile_of_values p xs =
  let a = Array.of_list xs in
  percentile_in p a (Array.length a)

(* The statistics below are folds of one shape: a while loop down the
   record list, newest first, so every float sum adds the same terms in
   the same order as a [List.fold_left] over the filtered list would,
   and no closure captures an accumulator, so the float refs stay
   unboxed. Percentile samples go into one float array with room for
   every record. *)

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
  let a = Array.make t.n 0. and k = ref 0 and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      if in_bin ~lo ~hi r then begin
        a.(!k) <- fct_ms r;
        incr k
      end;
      rs := rest
  done;
  percentile_in p a !k

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
  let sample = Array.make t.n 0. and rs = ref t.records in
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
        sample.(!n_small) <- ms;
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
    small_p99 = percentile_in 99. sample !n_small;
    large_avg = mean !large !n_large;
    total_retrans = t.retrans;
    hcp_bytes = t.hcp_payload;
    lcp_bytes = t.lcp_payload }

(* Normalized FCT (slowdown): a flow's completion time divided by the
   time an ideal, unloaded network of the given rate would need
   (serialization at line rate plus one base RTT). Homa-style papers
   report this instead of raw FCT. *)
let[@inline] slowdown ~rate ~base_rtt r =
  let ideal =
    Units.tx_time ~rate ~bytes:r.size + base_rtt
  in
  float_of_int (r.finish - r.start) /. float_of_int (Int.max 1 ideal)

let slowdown_stats ?(lo = 0) ?(hi = max_int) ~rate ~base_rtt t =
  let sum = ref 0. and k = ref 0 in
  let sample = Array.make t.n 0. and rs = ref t.records in
  while !rs != [] do
    match !rs with
    | [] -> ()
    | r :: rest ->
      if in_bin ~lo ~hi r then begin
        let x = slowdown ~rate ~base_rtt r in
        sum := !sum +. x;
        sample.(!k) <- x;
        incr k
      end;
      rs := rest
  done;
  if !k = 0 then (nan, nan)
  else
    (* interpolated, like every other percentile here — the former
       index formula [0.99 * n] degenerated to the sample maximum for
       n <= 100 *)
    (!sum /. float_of_int !k, percentile_in 99. sample !k)

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
