(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload, checks its outputs and prints, as the last line
   of standard output, one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. Lines starting
   with "#" before it describe each instance; the line before the
   result records the environment. See README.md. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref Workloads.default_seed in
  let seconds = ref 40 and trace = ref 0 in
  let dir = Filename.concat "_build" "perfbench" in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat ", "
                   (List.map (fun w -> w.Workloads.name) Workloads.all));
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S about how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      Arg.usage spec usage;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let log s = print_endline ("# " ^ s) in
  let result =
    if !trace = 1 then Bench.per_layer ~log ~dir w ~seed:!seed
    else Bench.end_to_end ~log ~dir w ~seed:!seed ~seconds:!seconds
  in
  List.iter (fun f -> log ("check failed: " ^ f)) result.Report.failures;
  let env k = Option.value (Sys.getenv_opt k) ~default:"unknown" in
  print_endline
    (Report.env_json
       [ ("workload", Report.json_string w.Workloads.name);
         ("seed", string_of_int !seed);
         ("trace", string_of_int !trace);
         ("nproc", Report.json_string (env "PERFBENCH_NPROC"));
         ("ocaml", Report.json_string Sys.ocaml_version);
         ("rev", Report.json_string (env "PERFBENCH_REV")) ]);
  print_endline (Report.to_json result)
