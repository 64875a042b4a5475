(* Tests of the benchmark itself, on ~20-flow instances of each
   workload: runs finish and pass their output checks, every metric
   printed is declared in BENCHMARK.json under a well-formed name, and
   the deterministic counts repeat exactly. *)

open Perfbench

let flows = 20

(* Names declared in one section of BENCHMARK.json: every ["name"]
   value between the section's key and the next section's. *)
let declared section =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let key name = Option.get (find ("\"" ^ name ^ "\"") 0) in
  let start = key section in
  let stop =
    List.fold_left
      (fun acc next ->
         let i = key next in
         if i > start && i < acc then i else acc)
      (String.length s) [ "workloads"; "end_to_end"; "per_layer" ]
  in
  let key = "\"name\": \"" in
  let rec names from acc =
    match find key from with
    | Some i when i < stop ->
      let v = i + String.length key in
      let e = String.index_from s v '"' in
      names e (String.sub s v (e - v) :: acc)
    | _ -> List.rev acc
  in
  names start []

let well_formed name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let check_names section (r : Report.t) =
  let decl = declared section in
  List.iter
    (fun (name, _, _) ->
       Alcotest.(check bool) (name ^ " well formed") true (well_formed name);
       Alcotest.(check bool) (name ^ " declared") true (List.mem name decl))
    r.Report.metrics;
  Alcotest.(check (list string)) "every declared metric printed"
    (List.sort compare decl)
    (List.sort compare (List.map (fun (n, _, _) -> n) r.Report.metrics))

let end_to_end w =
  Bench.end_to_end ~flows ~instances:1 ~dir:"." w ~seed:1 ~seconds:1

let per_layer w = Bench.per_layer ~flows ~dir:"." w ~seed:1

let runs (w : Workloads.t) () =
  let r = end_to_end w in
  Alcotest.(check (list string)) "no failures" [] r.Report.failures;
  Alcotest.(check bool) "correct" true r.Report.correct;
  Alcotest.(check int) "attempted" flows r.Report.attempted;
  Alcotest.(check int) "failed" 0 r.Report.failed;
  check_names "end_to_end" r;
  let l = per_layer w in
  Alcotest.(check (list string)) "no per-layer failures" [] l.Report.failures;
  check_names "per_layer" l

(* Simulation counts; the GC's own counts depend on the heap the
   process already has, so they are left out. *)
let counts (r : Report.t) =
  List.filter_map
    (fun (name, v, _) ->
       match v with
       | Report.Int i when not (String.starts_with ~prefix:"gc." name) ->
         Some (name, i)
       | _ -> None)
    r.Report.metrics

let deterministic (w : Workloads.t) () =
  let a = per_layer w and b = per_layer w in
  Alcotest.(check (list (pair string int))) "counts repeat" (counts a)
    (counts b);
  Alcotest.(check bool) "has counts" true (List.length (counts a) >= 10)

let workload_names () =
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " runnable") true
         (Workloads.find name <> None))
    (declared "workloads")

let () =
  Alcotest.run "perfbench"
    [ ("declared",
       [ Alcotest.test_case "workload names" `Quick workload_names ]);
      ("small runs",
       List.map
         (fun w -> Alcotest.test_case w.Workloads.name `Quick (runs w))
         Workloads.all);
      ("deterministic counts",
       List.map
         (fun w -> Alcotest.test_case w.Workloads.name `Quick (deterministic w))
         Workloads.all) ]
