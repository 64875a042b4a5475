(* Trace replay and the slowdown view: generate a workload trace,
   export it to CSV, replay the *identical* trace under two transports
   and compare their normalized FCT (slowdown) distributions — the
   apples-to-apples methodology the paper's FCT comparisons rely on.

     dune exec examples/trace_replay.exe *)

open Ppt_workload
open Ppt_stats
open Ppt_harness

let () =
  let cfg = Config.oversub ~scale:2 ~n_flows:300 ~load:0.5 () in
  (* one trace, shared by every scheme *)
  let trace = Runner.flows cfg in
  let csv = Trace.to_csv trace in
  Format.printf
    "replaying one %d-flow web-search trace (%d MB total; first rows):@."
    (List.length trace)
    (Trace.total_bytes trace / 1_000_000);
  String.split_on_char '\n' csv
  |> List.filteri (fun i _ -> i < 4)
  |> List.iter (Format.printf "  %s@.");
  (* prove the CSV round-trips before using it *)
  assert (Trace.of_csv csv = trace);
  Format.printf "@.";
  let ppf = Format.std_formatter in
  Table.header ppf [ "mean-slwdn"; "p99-slwdn"; "jain" ];
  List.iter
    (fun scheme ->
       let r = Runner.run ~trace cfg scheme in
       let fct = Fct.create () in
       List.iter (Fct.add fct) r.Runner.records;
       let mean, p99 =
         Fct.slowdown_stats ~rate:r.Runner.edge_rate
           ~base_rtt:r.Runner.base_rtt fct
       in
       Table.row ppf r.Runner.r_scheme
         [ mean; p99; Fct.jain_fairness fct ])
    [ Schemes.ppt; Schemes.dctcp ];
  Format.printf
    "@.A slowdown of 1.0 means the flow moved at line rate; the gap\
     @.between the two rows is what the dual loop + scheduling buy on\
     @.the exact same packet arrivals.@."
