(* Tests for the workload substrate: CDFs, the paper's distributions
   (Table 2) and trace generation. *)

open Ppt_engine
open Ppt_workload

let check = Alcotest.check

let test_cdf_validation () =
  Alcotest.check_raises "first prob must be 0"
    (Invalid_argument "Cdf: first probability must be 0")
    (fun () -> ignore (Cdf.create [ (0., 0.5); (10., 1.) ]));
  Alcotest.check_raises "last prob must be 1"
    (Invalid_argument "Cdf: last probability must be 1")
    (fun () -> ignore (Cdf.create [ (0., 0.); (10., 0.9) ]));
  Alcotest.check_raises "must increase"
    (Invalid_argument "Cdf: points must increase")
    (fun () -> ignore (Cdf.create [ (0., 0.); (10., 0.5); (5., 1.) ]))

let test_cdf_mean_uniform () =
  (* uniform on [0, 100]: mean 50 *)
  let c = Cdf.create [ (0., 0.); (100., 1.) ] in
  check (Alcotest.float 1e-9) "uniform mean" 50. (Cdf.mean c)

let test_cdf_fraction_below () =
  let c = Cdf.create [ (0., 0.); (100., 0.5); (200., 1.) ] in
  check (Alcotest.float 1e-9) "below 100" 0.5 (Cdf.fraction_below c 100);
  check (Alcotest.float 1e-9) "below 150" 0.75 (Cdf.fraction_below c 150);
  check (Alcotest.float 1e-9) "below 0" 0. (Cdf.fraction_below c 0);
  check (Alcotest.float 1e-9) "below max" 1. (Cdf.fraction_below c 500)

let prop_samples_in_support =
  QCheck.Test.make ~name:"cdf samples stay in the support" ~count:100
    QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let c = Dists.web_search in
       let ok = ref true in
       for _ = 1 to 100 do
         let x = Cdf.sample c rng in
         if x < 1 || x > Cdf.max_size c then ok := false
       done;
       !ok)

let sample_stats cdf n =
  let rng = Rng.create 99 in
  let small = ref 0 and sum = ref 0. in
  for _ = 1 to n do
    let x = Cdf.sample cdf rng in
    if x <= Ppt_stats.Fct.cutoff then incr small;
    sum := !sum +. float_of_int x
  done;
  (float_of_int !small /. float_of_int n, !sum /. float_of_int n)

(* Table 2 of the paper: the computed statistics of our distributions
   must match the published ones. *)
let test_web_search_table2 () =
  let frac_small = Cdf.fraction_below Dists.web_search 100_000 in
  check Alcotest.bool
    (Printf.sprintf "62%% small (got %.1f%%)" (100. *. frac_small))
    true (abs_float (frac_small -. 0.62) < 0.02);
  let mean = Cdf.mean Dists.web_search in
  check Alcotest.bool
    (Printf.sprintf "1.6MB mean (got %.2fMB)" (mean /. 1e6))
    true (abs_float (mean -. 1.6e6) < 0.25e6)

let test_data_mining_table2 () =
  let frac_small = Cdf.fraction_below Dists.data_mining 100_000 in
  check Alcotest.bool
    (Printf.sprintf "83%% small (got %.1f%%)" (100. *. frac_small))
    true (abs_float (frac_small -. 0.83) < 0.02);
  let mean = Cdf.mean Dists.data_mining in
  check Alcotest.bool
    (Printf.sprintf "7.41MB mean (got %.2fMB)" (mean /. 1e6))
    true (abs_float (mean -. 7.41e6) < 1.2e6)

let test_memcached_shape () =
  (* >70% of flows below 1000B; everything at most 100KB *)
  let below_1k = Cdf.fraction_below Dists.memcached 1_000 in
  check Alcotest.bool
    (Printf.sprintf ">70%% under 1KB (got %.1f%%)" (100. *. below_1k))
    true (below_1k > 0.70);
  check Alcotest.int "max 100KB" 100_000 (Cdf.max_size Dists.memcached)

let test_sampling_matches_analytics () =
  let frac, mean = sample_stats Dists.web_search 100_000 in
  check Alcotest.bool
    (Printf.sprintf "sampled small frac %.3f ~ analytic" frac)
    true (abs_float (frac -. Cdf.fraction_below Dists.web_search 100_000)
          < 0.01);
  check Alcotest.bool
    (Printf.sprintf "sampled mean %.0f ~ analytic" mean)
    true
    (abs_float (mean -. Cdf.mean Dists.web_search)
     < 0.05 *. Cdf.mean Dists.web_search)

(* Regression: [sample] rounds the interpolated size to nearest. With
   truncation the uniform-on-[0,10] CDF sampled to a mean of ~4.6
   (floor loses half a byte per draw, and the [max 1] floor turns the
   whole bottom decile into 1s); rounded sampling centres on ~5.05. *)
let test_cdf_sample_rounds () =
  let c = Cdf.create [ (0., 0.); (10., 1.) ] in
  let rng = Rng.create 7 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do sum := !sum + Cdf.sample c rng done;
  let mean = float_of_int !sum /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "rounded mean %.3f ~ 5.0" mean)
    true
    (abs_float (mean -. 5.0) < 0.2)

(* Every built-in workload's empirical mean converges on the analytic
   [Cdf.mean], whatever the seed. The data-mining tail is heavy (its
   std-of-mean is ~3.5%% at 50k draws), hence the 15%% tolerance. *)
let prop_sample_mean_converges =
  QCheck.Test.make ~name:"cdf empirical mean matches Cdf.mean" ~count:5
    QCheck.small_int
    (fun seed ->
       List.for_all
         (fun { Dists.cdf; _ } ->
            let rng = Rng.create (seed + 1) in
            let n = 50_000 in
            let sum = ref 0. in
            for _ = 1 to n do
              sum := !sum +. float_of_int (Cdf.sample cdf rng)
            done;
            let mean = !sum /. float_of_int n in
            abs_float (mean -. Cdf.mean cdf) < 0.15 *. Cdf.mean cdf)
         Dists.all)

let test_by_name () =
  check Alcotest.bool "lookup works" true
    (Dists.by_name "web-search" == Dists.web_search);
  Alcotest.check_raises "unknown workload"
    (Invalid_argument "Dists.by_name: unknown workload nope")
    (fun () -> ignore (Dists.by_name "nope"))

(* --- trace generation -------------------------------------------------- *)

let test_trace_poisson_load () =
  (* the generated trace's offered load must approximate the target *)
  let rng = Rng.create 5 in
  let hosts = Array.init 16 Fun.id in
  let edge_rate = Units.gbps 10 in
  let load = 0.5 in
  let specs =
    Trace.generate ~rng ~cdf:Dists.web_search
      ~pattern:(Trace.All_to_all hosts) ~edge_rate ~load ~n_flows:4000 ()
  in
  let bytes = Trace.total_bytes specs in
  let span =
    (List.nth specs (List.length specs - 1)).Trace.start
    - (List.hd specs).Trace.start
  in
  let offered =
    float_of_int (bytes * 8)
    /. (float_of_int span /. 1e9)
    /. float_of_int (16 * edge_rate)
  in
  check Alcotest.bool
    (Printf.sprintf "offered load %.3f ~ 0.5" offered)
    true (abs_float (offered -. load) < 0.1);
  (* The arrival process, for every CDF and both load definitions: the
     realized rate [n / last start] of a Poisson process with the §6.1
     mean inter-arrival, [mean_size * 8 / (load * agg_rate)], is within
     3/sqrt(n) of its rate (the last start is a sum of n exponentials).
     The rate is checked rather than the offered load, because data
     mining's heavy tail makes the realized bytes too noisy. *)
  let n = 4000 in
  let patterns =
    [ ("all-to-all", Trace.All_to_all hosts, 16);
      ("incast", Trace.Incast { senders = Array.init 14 Fun.id;
                                receiver = 14 }, 1) ]
  in
  List.iteri
    (fun i { Dists.dist_name; cdf } ->
       List.iteri
         (fun j (pname, pattern, links) ->
            let specs =
              Trace.generate ~rng:(Rng.create (10 + (2 * i) + j)) ~cdf
                ~pattern ~edge_rate ~load ~n_flows:n ()
            in
            let last = (List.nth specs (n - 1)).Trace.start in
            let mean_ia_ns =
              Cdf.mean cdf *. 8. /. (load *. float_of_int (links * edge_rate))
              *. 1e9
            in
            let ratio = float_of_int n /. float_of_int last *. mean_ia_ns in
            check Alcotest.bool
              (Printf.sprintf "%s %s: rate / target %.4f" dist_name pname
                 ratio)
              true
              (abs_float (ratio -. 1.) < 3. /. sqrt (float_of_int n)))
         patterns)
    Dists.all

let test_trace_sorted_and_valid () =
  let rng = Rng.create 6 in
  let hosts = Array.init 8 Fun.id in
  let specs =
    Trace.generate ~rng ~cdf:Dists.memcached
      ~pattern:(Trace.All_to_all hosts) ~edge_rate:(Units.gbps 10)
      ~load:0.3 ~n_flows:500 ()
  in
  check Alcotest.int "count" 500 (List.length specs);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Trace.start <= b.Trace.start && sorted rest
    | _ -> true
  in
  check Alcotest.bool "sorted by start" true (sorted specs);
  List.iter
    (fun s ->
       if s.Trace.src = s.Trace.dst then Alcotest.fail "self flow";
       if s.Trace.size < 1 then Alcotest.fail "empty flow")
    specs

let test_trace_incast_pattern () =
  let rng = Rng.create 7 in
  let senders = Array.init 14 (fun i -> i) in
  let specs =
    Trace.generate ~rng ~cdf:Dists.web_search
      ~pattern:(Trace.Incast { senders; receiver = 14 })
      ~edge_rate:(Units.gbps 10) ~load:0.5 ~n_flows:200 ()
  in
  List.iter
    (fun s ->
       check Alcotest.int "receiver fixed" 14 s.Trace.dst;
       check Alcotest.bool "sender in set" true (s.Trace.src < 14))
    specs

let test_trace_csv_roundtrip () =
  let rng = Rng.create 8 in
  let specs =
    Trace.generate ~rng ~cdf:Dists.web_search
      ~pattern:(Trace.All_to_all (Array.init 6 Fun.id))
      ~edge_rate:(Units.gbps 10) ~load:0.5 ~n_flows:200 ()
  in
  let parsed = Trace.of_csv (Trace.to_csv specs) in
  check Alcotest.bool "round trip preserves the trace" true
    (parsed = specs)

let test_trace_csv_validation () =
  let bad body =
    try ignore (Trace.of_csv (Trace.csv_header ^ "\n" ^ body)); false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "missing fields rejected" true (bad "1,2,3");
  check Alcotest.bool "non-numeric rejected" true (bad "a,0,1,10,0");
  check Alcotest.bool "self flow rejected" true (bad "0,3,3,10,0");
  check Alcotest.bool "empty size rejected" true (bad "0,0,1,0,0");
  check Alcotest.bool "valid row accepted" true
    (Trace.of_csv (Trace.csv_header ^ "\n0,0,1,10,5\n")
     = [ { Trace.id = 0; src = 0; dst = 1; size = 10; start = 5 } ])

(* Ids index the fabric's delivery table, so a file must use [0, n)
   once each; a repeated id would silently replace another flow's
   handlers. The message names the offending line. *)
let test_trace_csv_ids () =
  let error body =
    match Trace.of_csv (Trace.csv_header ^ "\n" ^ body) with
    | _ -> "accepted"
    | exception Invalid_argument msg -> msg
  in
  check Alcotest.string "duplicate id"
    "Trace.of_csv: duplicate flow id 0 at line 3"
    (error "0,0,1,10,0\n0,1,0,10,5\n");
  check Alcotest.string "id past the end"
    "Trace.of_csv: flow id 2 at line 3 outside [0, 2)"
    (error "0,0,1,10,0\n2,1,0,10,5\n");
  check Alcotest.string "negative id"
    "Trace.of_csv: flow id -1 at line 2 outside [0, 1)"
    (error "-1,0,1,10,0\n");
  check Alcotest.string "blank lines keep the file's numbering"
    "Trace.of_csv: bad number at line 4" (error "0,0,1,10,0\n\n1,0,x,1,1\n");
  check Alcotest.int "ids in any order are fine" 2
    (List.length
       (Trace.of_csv (Trace.csv_header ^ "\n1,0,1,10,0\n0,1,0,10,5\n")))

(* Line 1 must be the header: a headerless file is refused by name
   rather than losing its first flow and then failing on a flow id. *)
let test_trace_csv_header () =
  let error text =
    match Trace.of_csv text with
    | l -> Printf.sprintf "accepted %d" (List.length l)
    | exception Invalid_argument msg -> msg
  in
  let refused =
    "Trace.of_csv: line 1 is not the header \"id,src,dst,size_bytes,start_ns\""
  in
  check Alcotest.string "headerless" refused (error "0,0,1,10,0\n1,1,0,10,5\n");
  check Alcotest.string "empty text" refused (error "");
  check Alcotest.string "header only" "accepted 0"
    (error (Trace.csv_header ^ "\n"));
  check Alcotest.string "CRLF header" "accepted 1"
    (error (Trace.csv_header ^ "\r\n0,0,1,10,0\r\n"))

(* Damaged trace files — truncated, bit-flipped, rows shuffled (the
   header too) — either parse into a start-sorted trace or raise
   [Invalid_argument]; nothing else escapes. *)
let prop_trace_csv_garbage =
  QCheck.Test.make ~name:"trace csv: damaged files fail cleanly" ~count:500
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, damage) ->
       let rng = Rng.create seed in
       let specs =
         Trace.generate ~rng:(Rng.split rng) ~cdf:Dists.web_search
           ~pattern:(Trace.All_to_all (Array.init 4 Fun.id))
           ~edge_rate:(Units.gbps 10) ~load:0.5 ~n_flows:(Rng.int rng 20) ()
       in
       let text = Trace.to_csv specs in
       let text =
         match damage with
         | 0 -> String.sub text 0 (Rng.int rng (String.length text + 1))
         | 1 ->
           let b = Bytes.of_string text in
           for _ = 0 to Rng.int rng 8 do
             let i = Rng.int rng (Bytes.length b) in
             Bytes.set b i
               (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)))
           done;
           Bytes.to_string b
         | _ ->
           let lines = Array.of_list (String.split_on_char '\n' text) in
           let n = Array.length lines in
           for i = n - 1 downto 1 do
             let j = Rng.int rng (i + 1) in
             let x = lines.(i) in
             lines.(i) <- lines.(j);
             lines.(j) <- x
           done;
           String.concat "\n" (Array.to_list lines)
       in
       match Trace.of_csv text with
       | parsed ->
         let rec sorted = function
           | (a : Trace.spec) :: (b :: _ as tl) ->
             a.start <= b.start && sorted tl
           | _ -> true
         in
         sorted parsed
       | exception Invalid_argument _ -> true)

let test_trace_determinism () =
  let gen seed =
    Trace.generate ~rng:(Rng.create seed) ~cdf:Dists.web_search
      ~pattern:(Trace.All_to_all (Array.init 4 Fun.id))
      ~edge_rate:(Units.gbps 10) ~load:0.5 ~n_flows:100 ()
  in
  check Alcotest.bool "same seed, same trace" true (gen 1 = gen 1);
  check Alcotest.bool "different seed, different trace" true
    (gen 1 <> gen 2)

let suite =
  [ Alcotest.test_case "cdf: validation" `Quick test_cdf_validation;
    Alcotest.test_case "cdf: uniform mean" `Quick test_cdf_mean_uniform;
    Alcotest.test_case "cdf: fraction below" `Quick test_cdf_fraction_below;
    QCheck_alcotest.to_alcotest prop_samples_in_support;
    Alcotest.test_case "dists: web search Table 2" `Quick
      test_web_search_table2;
    Alcotest.test_case "dists: data mining Table 2" `Quick
      test_data_mining_table2;
    Alcotest.test_case "dists: memcached shape" `Quick test_memcached_shape;
    Alcotest.test_case "dists: sampling matches analytics" `Quick
      test_sampling_matches_analytics;
    Alcotest.test_case "cdf: sample rounds to nearest" `Quick
      test_cdf_sample_rounds;
    QCheck_alcotest.to_alcotest prop_sample_mean_converges;
    Alcotest.test_case "dists: lookup by name" `Quick test_by_name;
    Alcotest.test_case "trace: poisson load" `Quick test_trace_poisson_load;
    Alcotest.test_case "trace: sorted and valid" `Quick
      test_trace_sorted_and_valid;
    Alcotest.test_case "trace: incast pattern" `Quick
      test_trace_incast_pattern;
    Alcotest.test_case "trace: csv round trip" `Quick
      test_trace_csv_roundtrip;
    Alcotest.test_case "trace: csv validation" `Quick
      test_trace_csv_validation;
    Alcotest.test_case "trace: csv flow ids" `Quick test_trace_csv_ids;
    Alcotest.test_case "trace: csv header" `Quick test_trace_csv_header;
    QCheck_alcotest.to_alcotest prop_trace_csv_garbage;
    Alcotest.test_case "trace: determinism" `Quick test_trace_determinism ]
