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

let fct_ms r = Units.to_ms (r.finish - r.start)

type t = {
  mutable records : record list;
  mutable n : int;
}

let create () = { records = []; n = 0 }

let add t r =
  if r.finish < r.start then invalid_arg "Fct.add: finish before start";
  t.records <- r :: t.records;
  t.n <- t.n + 1

let count t = t.n
let records t = t.records

let filter ?(lo = 0) ?(hi = max_int) t =
  List.filter (fun r -> r.size > lo && r.size <= hi) t.records

let avg_of = function
  | [] -> nan
  | rs ->
    List.fold_left (fun acc r -> acc +. fct_ms r) 0. rs
    /. float_of_int (List.length rs)

(* Reorder [a] so that [a.(k)] holds its k-th order statistic (in
   [Float.compare] order, the order [Array.sort compare] gives), with
   no larger element before it and no smaller one after it:
   quickselect with a median-of-three pivot and a three-way partition,
   so runs of equal values do not degrade it. *)
let select (a : float array) k =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
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

(* Interpolating percentile over a float sample: rank p/100*(n-1),
   linear between the surrounding order statistics. Every percentile
   this module reports goes through here. The i-th order statistic
   comes from [select], the (i+1)-th is the least of the part above
   it, so no sort is needed and the result is that of a sort. *)
let percentile_of_values p = function
  | [] -> nan
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float rank in
    if i >= n - 1 then begin
      select arr (n - 1);
      arr.(n - 1)
    end else begin
      select arr i;
      let next = ref arr.(i + 1) in
      for j = i + 2 to n - 1 do
        if Float.compare arr.(j) !next < 0 then next := arr.(j)
      done;
      let frac = rank -. float_of_int i in
      arr.(i) +. ((!next -. arr.(i)) *. frac)
    end

let percentile_of p rs = percentile_of_values p (List.map fct_ms rs)

let avg ?lo ?hi t = avg_of (filter ?lo ?hi t)
let percentile ?lo ?hi t p = percentile_of p (filter ?lo ?hi t)

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

let summarize ?(cutoff = 100_000) t =
  { flows = t.n;
    overall_avg = avg t;
    small_avg = avg ~hi:cutoff t;
    small_p99 = percentile ~hi:cutoff t 99.;
    large_avg = avg ~lo:cutoff t;
    total_retrans =
      List.fold_left (fun acc r -> acc + r.retrans) 0 t.records;
    hcp_bytes =
      List.fold_left (fun acc r -> acc + r.hcp_payload) 0 t.records;
    lcp_bytes =
      List.fold_left (fun acc r -> acc + r.lcp_payload) 0 t.records }

(* Normalized FCT (slowdown): a flow's completion time divided by the
   time an ideal, unloaded network of the given rate would need
   (serialization at line rate plus one base RTT). Homa-style papers
   report this instead of raw FCT. *)
let slowdown ~rate ~base_rtt r =
  let ideal =
    Units.tx_time ~rate ~bytes:r.size + base_rtt
  in
  float_of_int (r.finish - r.start) /. float_of_int (max 1 ideal)

let slowdowns ?lo ?hi ~rate ~base_rtt t =
  List.map (slowdown ~rate ~base_rtt) (filter ?lo ?hi t)

let slowdown_stats ?lo ?hi ~rate ~base_rtt t =
  match slowdowns ?lo ?hi ~rate ~base_rtt t with
  | [] -> (nan, nan)
  | xs ->
    let n = List.length xs in
    let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
    (* interpolated, like every other percentile here — the former
       index formula [0.99 * n] degenerated to the sample maximum for
       n <= 100 *)
    (mean, percentile_of_values 99. xs)

(* Jain's fairness index over per-flow average throughput (bytes per
   unit of flow lifetime): 1.0 = perfectly fair. *)
let jain_fairness t =
  let rates =
    List.filter_map
      (fun r ->
         let d = r.finish - r.start in
         if d <= 0 then None
         else Some (float_of_int r.size /. float_of_int d))
      t.records
  in
  match rates with
  | [] -> nan
  | _ ->
    let n = float_of_int (List.length rates) in
    let s = List.fold_left ( +. ) 0. rates in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. rates in
    if s2 = 0. then nan else s *. s /. (n *. s2)

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<h>flows=%d overall=%.3fms small-avg=%.3fms small-p99=%.3fms \
     large-avg=%.3fms retrans=%d@]"
    s.flows s.overall_avg s.small_avg s.small_p99 s.large_avg
    s.total_retrans
