(* Tests for the statistics library. *)

open Ppt_stats

let check = Alcotest.check

let rc ?(flow = 0) ?(size = 1_000) ?(start = 0) ~finish () =
  { Fct.flow; size; start; finish; retrans = 0; hcp_payload = size;
    lcp_payload = 0; hcp_delivered = size; lcp_delivered = 0 }

let test_avg () =
  let t = Fct.create () in
  Fct.add t (rc ~finish:1_000_000 ());          (* 1 ms *)
  Fct.add t (rc ~finish:3_000_000 ());          (* 3 ms *)
  check (Alcotest.float 1e-9) "avg" 2.0 (Fct.avg t)

let test_size_bins () =
  let t = Fct.create () in
  Fct.add t (rc ~size:50_000 ~finish:1_000_000 ());
  Fct.add t (rc ~size:500_000 ~finish:9_000_000 ());
  let s = Fct.summarize t in
  check (Alcotest.float 1e-9) "small avg" 1.0 s.Fct.small_avg;
  check (Alcotest.float 1e-9) "large avg" 9.0 s.Fct.large_avg;
  check (Alcotest.float 1e-9) "overall avg" 5.0 s.Fct.overall_avg

let test_boundary_is_inclusive () =
  (* exactly 100KB counts as small: the paper's (0, 100KB] bin *)
  let t = Fct.create () in
  Fct.add t (rc ~size:100_000 ~finish:2_000_000 ());
  let s = Fct.summarize t in
  check (Alcotest.float 1e-9) "100KB is small" 2.0 s.Fct.small_avg;
  check Alcotest.bool "no large flows" true (Float.is_nan s.Fct.large_avg)

let test_percentile () =
  let t = Fct.create () in
  for i = 1 to 100 do
    Fct.add t (rc ~flow:i ~finish:(i * 1_000_000) ())
  done;
  let p99 = Fct.percentile t 99. in
  check Alcotest.bool (Printf.sprintf "p99=%.2f" p99) true
    (p99 > 98.9 && p99 <= 100.);
  let p50 = Fct.percentile t 50. in
  check Alcotest.bool (Printf.sprintf "p50=%.2f" p50) true
    (p50 > 49. && p50 < 52.)

let test_empty_is_nan () =
  let t = Fct.create () in
  check Alcotest.bool "avg of empty" true (Float.is_nan (Fct.avg t));
  check Alcotest.bool "pct of empty" true
    (Float.is_nan (Fct.percentile t 99.))

let test_invalid_record_rejected () =
  let t = Fct.create () in
  Alcotest.check_raises "finish before start"
    (Invalid_argument "Fct.add: finish before start")
    (fun () -> Fct.add t (rc ~start:10 ~finish:5 ()))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 50) (int_range 1 1_000_000))
    (fun fcts ->
       let t = Fct.create () in
       List.iteri (fun i f -> Fct.add t (rc ~flow:i ~finish:f ())) fcts;
       let ps = [ 10.; 25.; 50.; 75.; 90.; 99. ] in
       let vals = List.map (Fct.percentile t) ps in
       let rec mono = function
         | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
         | _ -> true
       in
       mono vals)

let prop_avg_between_min_max =
  QCheck.Test.make ~name:"average lies between min and max" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 1_000_000))
    (fun fcts ->
       let t = Fct.create () in
       List.iteri (fun i f -> Fct.add t (rc ~flow:i ~finish:f ())) fcts;
       let ms = List.map (fun f -> float_of_int f /. 1e6) fcts in
       let mn = List.fold_left min infinity ms in
       let mx = List.fold_left max neg_infinity ms in
       let avg = Fct.avg t in
       avg >= mn -. 1e-9 && avg <= mx +. 1e-9)

let test_slowdown () =
  (* 1460B at 10G = ~1.2us serialization; base RTT 10us; ideal ~11.2us *)
  let r = rc ~size:1_460 ~finish:22_336 () in
  let s =
    Fct.slowdown ~rate:(Ppt_engine.Units.gbps 10) ~base_rtt:10_000 r
  in
  check (Alcotest.float 1e-6) "slowdown of exactly 2x ideal" 2.0 s

let test_slowdown_stats_filtering () =
  let t = Fct.create () in
  Fct.add t (rc ~flow:0 ~size:1_000 ~finish:100_000 ());
  Fct.add t (rc ~flow:1 ~size:1_000_000 ~finish:100_000_000 ());
  let rate = Ppt_engine.Units.gbps 10 and base_rtt = 10_000 in
  let _, p99_small =
    Fct.slowdown_stats ~hi:100_000 ~rate ~base_rtt t
  in
  let _, p99_all = Fct.slowdown_stats ~rate ~base_rtt t in
  check Alcotest.bool "filtered differs from unfiltered" true
    (p99_small <> p99_all || Float.is_nan p99_small = false)

let test_slowdown_p99_interpolates () =
  let rate = Ppt_engine.Units.gbps 10 and base_rtt = 1_000_000 in
  let ideal = Ppt_engine.Units.tx_time ~rate ~bytes:1 + base_rtt in
  let t = Fct.create () in
  for i = 1 to 100 do
    Fct.add t (rc ~flow:i ~size:1 ~finish:(i * ideal) ())
  done;
  let mean, p99 = Fct.slowdown_stats ~rate ~base_rtt t in
  check (Alcotest.float 1e-6) "mean of 1..100" 50.5 mean;
  (* interpolated rank 0.99*(n-1) between the 99th and 100th order
     statistics; the former index formula 0.99*n degenerated to the
     sample maximum (here 100.0) for every n <= 100 *)
  check (Alcotest.float 1e-6) "interpolated p99" 99.01 p99

let test_percentile_of_values () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-6) "p99 of 1..100" 99.01
    (Fct.percentile_of_values 99. xs);
  check (Alcotest.float 1e-6) "p50 of 1..100" 50.5
    (Fct.percentile_of_values 50. xs);
  check (Alcotest.float 1e-6) "p100 is the max" 100.
    (Fct.percentile_of_values 100. xs);
  check Alcotest.bool "empty is nan" true
    (Float.is_nan (Fct.percentile_of_values 99. []))

(* A percentile rank outside [0, 100] is a caller's error: -50 used to
   index out of the sample inside the selection, -5 to extrapolate
   below its minimum and 150 to return its maximum. *)
let test_percentile_rejects_bad_p () =
  let xs = List.init 11 float_of_int in
  let t = Fct.create () in
  List.iteri
    (fun i x -> Fct.add t (rc ~flow:i ~finish:(int_of_float x) ()))
    xs;
  let bad = Invalid_argument "Fct.percentile: p must be in [0, 100]" in
  List.iter
    (fun p ->
       let name f = Printf.sprintf "%s at p = %g" f p in
       Alcotest.check_raises (name "percentile_of_values") bad (fun () ->
           ignore (Fct.percentile_of_values p xs));
       Alcotest.check_raises (name "percentile") bad (fun () ->
           ignore (Fct.percentile t p)))
    [ -50.; -5.; -0.001; 100.001; 150.; nan; infinity; neg_infinity ];
  check (Alcotest.float 0.) "p = 0 is the minimum" 0.
    (Fct.percentile_of_values 0. xs);
  check (Alcotest.float 0.) "p = 100 is the maximum" 10.
    (Fct.percentile_of_values 100. xs)

(* The heap-based percentile against the sort-based definition:
   bit-for-bit the same value, on samples with many duplicates, of one
   and two values, of ~3,000 values (where the heap holds a few dozen of
   them), with NaNs and infinities, and at the edge and tail
   percentiles. *)
let sorted_percentile p xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let i = int_of_float rank in
  if i >= n - 1 then arr.(n - 1)
  else
    arr.(i) +. ((arr.(i + 1) -. arr.(i)) *. (rank -. float_of_int i))

(* Ranks at the tail, where the heap is smallest, and anywhere. *)
let gen_p =
  QCheck.Gen.(
    oneof [ oneofl [ 0.; 50.; 99.; 99.9; 100. ]; float_range 0. 100. ])

let prop_percentile_matches_sort =
  let sample =
    QCheck.Gen.(
      oneof
        [ list_size (int_range 1 2) (float_range 0. 1e3);
          (* few distinct values: long runs of duplicates *)
          list_size (int_range 1 300)
            (map float_of_int (int_range 0 5));
          list_size (int_range 1 300) (float_range (-1e6) 1e6);
          list_size (int_range 2_500 3_500)
            (map float_of_int (int_range 0 50));
          list_size (int_range 2_500 3_500) (float_range (-1e6) 1e6);
          (* NaN sorts below every value, as [compare] orders it *)
          list_size (int_range 1 3_500)
            (frequency
               [ (50, float_range (-1e6) 1e6);
                 (1, oneofl [ nan; infinity; neg_infinity ]) ]) ])
  in
  QCheck.Test.make ~name:"percentile by selection matches the sort"
    ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair float (list float))
       QCheck.Gen.(pair gen_p sample))
    (fun (p, xs) ->
       Int64.equal
         (Int64.bits_of_float (Fct.percentile_of_values p xs))
         (Int64.bits_of_float (sorted_percentile p xs)))

(* The one-pass statistics against list-based copies of the original
   code, bit for bit: the same terms summed in the same order (newest
   record first), NaN for an empty bin, the 100KB cutoff inclusive. *)
module Ref = struct
  let filter ?(lo = 0) ?(hi = max_int) rs =
    List.filter (fun (r : Fct.record) -> r.size > lo && r.size <= hi) rs

  let ms (r : Fct.record) = Ppt_engine.Units.to_ms (r.finish - r.start)

  let avg = function
    | [] -> nan
    | rs ->
      List.fold_left (fun acc r -> acc +. ms r) 0. rs
      /. float_of_int (List.length rs)

  let pct p = function [] -> nan | xs -> sorted_percentile p xs

  let summarize rs =
    let cutoff = 100_000 in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
    { Fct.flows = List.length rs;
      overall_avg = avg (filter rs);
      small_avg = avg (filter ~hi:cutoff rs);
      small_p99 = pct 99. (List.map ms (filter ~hi:cutoff rs));
      large_avg = avg (filter ~lo:cutoff rs);
      total_retrans = sum (fun r -> r.Fct.retrans);
      hcp_bytes = sum (fun r -> r.Fct.hcp_payload);
      lcp_bytes = sum (fun r -> r.Fct.lcp_payload) }

  let slowdown_stats ?lo ?hi ~rate ~base_rtt rs =
    match List.map (Fct.slowdown ~rate ~base_rtt) (filter ?lo ?hi rs) with
    | [] -> (nan, nan)
    | xs ->
      ( List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs),
        pct 99. xs )

  let jain rs =
    let rates =
      List.filter_map
        (fun (r : Fct.record) ->
           let d = r.finish - r.start in
           if d <= 0 then None
           else Some (float_of_int r.size /. float_of_int d))
        rs
    in
    match rates with
    | [] -> nan
    | _ ->
      let n = float_of_int (List.length rates) in
      let s = List.fold_left ( +. ) 0. rates in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. rates in
      if s2 = 0. then nan else s *. s /. (n *. s2)
end

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let gen_records =
  let open QCheck.Gen in
  let size =
    oneof
      [ oneofl [ 0; 1; 99_999; 100_000; 100_001 ];
        int_range 1 200_000; int_range 1 10_000_000 ]
  in
  let duration =
    oneof
      [ oneofl [ 0; 1; 12_345 ];  (* runs of equal FCTs *)
        int_range 0 100_000_000 ]
  in
  let record flow =
    map
      (fun ((size, d), (start, retrans, lcp)) ->
         let lcp_payload = size * lcp / 100 in
         { Fct.flow; size; start; finish = start + d; retrans;
           hcp_payload = size - lcp_payload; lcp_payload;
           hcp_delivered = size; lcp_delivered = lcp_payload / 2 })
      (pair (pair size duration)
         (triple (int_range 0 1_000_000_000) (int_range 0 9)
            (int_range 0 100)))
  in
  let n =
    oneof [ oneofl [ 0; 1; 2 ]; int_range 0 300; int_range 2_500 3_500 ]
  in
  n >>= fun n -> flatten_l (List.init n record)

let prop_one_pass_matches_lists =
  (* Bins such as (99_999, 100_001] or (0, 1_000] hold a few of the
     records, so the heap, sized from [Fct.count], is far larger than
     the bin. *)
  let lohi =
    QCheck.Gen.(
      pair
        (opt (oneofl [ 0; 1_000; 99_999; 100_000 ]))
        (opt (oneofl [ 1_000; 100_000; 100_001; 1_000_000 ])))
  in
  QCheck.Test.make ~name:"one-pass statistics match the list-based ones"
    ~count:300
    (QCheck.make
       ~print:(fun (rs, ((lo, hi), p)) ->
           let bound = Option.fold ~none:"-" ~some:string_of_int in
           Printf.sprintf "%d records, lo %s, hi %s, p %g" (List.length rs)
             (bound lo) (bound hi) p)
       QCheck.Gen.(pair gen_records (pair lohi gen_p)))
    (fun (rs, ((lo, hi), p)) ->
       let t = Fct.create () in
       List.iter (Fct.add t) rs;
       let recs = Fct.records t in
       let a = Fct.summarize t and b = Ref.summarize recs in
       let rate = Ppt_engine.Units.gbps 10 and base_rtt = 8_000 in
       let pair_eq (m, p) (m', p') = same_float m m' && same_float p p' in
       a.Fct.flows = b.Fct.flows
       && same_float a.Fct.overall_avg b.Fct.overall_avg
       && same_float a.Fct.small_avg b.Fct.small_avg
       && same_float a.Fct.small_p99 b.Fct.small_p99
       && same_float a.Fct.large_avg b.Fct.large_avg
       && a.Fct.total_retrans = b.Fct.total_retrans
       && a.Fct.hcp_bytes = b.Fct.hcp_bytes
       && a.Fct.lcp_bytes = b.Fct.lcp_bytes
       && pair_eq
         (Fct.slowdown_stats ~rate ~base_rtt t)
         (Ref.slowdown_stats ~rate ~base_rtt recs)
       && pair_eq
         (Fct.slowdown_stats ?lo ?hi ~rate ~base_rtt t)
         (Ref.slowdown_stats ?lo ?hi ~rate ~base_rtt recs)
       && same_float
         (Fct.percentile ?lo ?hi t p)
         (Ref.pct p (List.map Ref.ms (Ref.filter ?lo ?hi recs)))
       && same_float (Fct.jain_fairness t) (Ref.jain recs)
       && Fct.hcp_delivered t
          = List.fold_left (fun acc r -> acc + r.Fct.hcp_delivered) 0 recs
       && Fct.lcp_delivered t
          = List.fold_left (fun acc r -> acc + r.Fct.lcp_delivered) 0 recs)

(* [summarize] and [slowdown_stats] allocate their p99 heap and a
   constant beyond it (the result), not a word per record: counted as
   minor words plus words allocated straight into the major heap. The
   heap holds ceil ((1 - 0.99) * n) + 2 floats, plus a header word; a
   sample of every value (n + 1 words) fails the bound. Minor words
   come from [Gc.minor_words]: on OCaml 5.1 the minor count of
   [Gc.counters] reads an eighth of the words allocated. *)
let allocation_check name f =
  let n = 10_000 in
  let t = Fct.create () in
  for i = 0 to n - 1 do
    let size = 1 + (i * 37 mod 200_000) in
    Fct.add t (rc ~flow:i ~size ~finish:(1 + (i * 7919 mod 5_000_000)) ())
  done;
  f t;
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. (major -. promoted)
  in
  let before = allocated () in
  f t;
  let words = allocated () -. before in
  let heap =
    Float.ceil ((1. -. 0.99) *. float_of_int n) +. 2. +. 1.
  in
  check Alcotest.bool
    (Printf.sprintf "%s: %.0f words for %d records (heap %.0f)" name words n
       heap)
    true
    (words -. heap <= 64.);
  t

let test_summarize_no_alloc () =
  let t =
    allocation_check "summarize" (fun t ->
        ignore (Sys.opaque_identity (Fct.summarize t)))
  in
  check Alcotest.int "flows" 10_000 (Fct.summarize t).Fct.flows

let test_slowdown_no_alloc () =
  ignore
    (allocation_check "slowdown_stats" (fun t ->
         ignore
           (Sys.opaque_identity
              (Fct.slowdown_stats ~rate:(Ppt_engine.Units.gbps 10)
                 ~base_rtt:8_000 t))))

let test_jain_fairness () =
  let t = Fct.create () in
  (* equal throughputs: index 1.0 *)
  Fct.add t (rc ~flow:0 ~size:1_000 ~finish:1_000 ());
  Fct.add t (rc ~flow:1 ~size:2_000 ~finish:2_000 ());
  check (Alcotest.float 1e-9) "equal rates fair" 1.0 (Fct.jain_fairness t);
  (* add a starved flow: index drops *)
  Fct.add t (rc ~flow:2 ~size:1_000 ~finish:1_000_000 ());
  check Alcotest.bool "starvation lowers the index" true
    (Fct.jain_fairness t < 0.9)

(* --- time series -------------------------------------------------------- *)

let test_utilization_probe () =
  let bytes = ref 0 in
  let probe =
    Series.utilization_probe ~rate:(Ppt_engine.Units.gbps 10)
      ~interval:(Ppt_engine.Units.us 100) (fun () -> !bytes)
  in
  ignore (probe ());
  (* 10G for 100us = 125000 bytes; deliver half of it *)
  bytes := 62_500;
  check (Alcotest.float 1e-6) "50% utilization" 0.5 (probe ());
  bytes := 62_500 + 125_000;
  check (Alcotest.float 1e-6) "100% utilization" 1.0 (probe ())

let suite =
  [ Alcotest.test_case "fct: average" `Quick test_avg;
    Alcotest.test_case "fct: size bins" `Quick test_size_bins;
    Alcotest.test_case "fct: 100KB boundary" `Quick
      test_boundary_is_inclusive;
    Alcotest.test_case "fct: percentile" `Quick test_percentile;
    Alcotest.test_case "fct: empty is nan" `Quick test_empty_is_nan;
    Alcotest.test_case "fct: invalid record" `Quick
      test_invalid_record_rejected;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_avg_between_min_max;
    Alcotest.test_case "slowdown: definition" `Quick test_slowdown;
    Alcotest.test_case "slowdown: filtering" `Quick
      test_slowdown_stats_filtering;
    Alcotest.test_case "slowdown: p99 interpolates" `Quick
      test_slowdown_p99_interpolates;
    Alcotest.test_case "percentile: raw values" `Quick
      test_percentile_of_values;
    Alcotest.test_case "percentile: p outside [0, 100]" `Quick
      test_percentile_rejects_bad_p;
    QCheck_alcotest.to_alcotest prop_percentile_matches_sort;
    QCheck_alcotest.to_alcotest prop_one_pass_matches_lists;
    Alcotest.test_case "fct: summarize allocates no word per record"
      `Quick test_summarize_no_alloc;
    Alcotest.test_case "slowdown: stats allocate no word per record"
      `Quick test_slowdown_no_alloc;
    Alcotest.test_case "fairness: jain index" `Quick test_jain_fairness;
    Alcotest.test_case "series: utilization probe" `Quick
      test_utilization_probe ]
