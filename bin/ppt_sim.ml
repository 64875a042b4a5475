(* ppt_sim: command-line front end for the PPT simulator.

     ppt_sim list
     ppt_sim run --topo oversub --scheme ppt --workload web-search \
                 --load 0.5 --flows 500
     ppt_sim compare --topo testbed --load 0.7
     ppt_sim sweep fig12 [--flows-scale 0.5] [--full] [--jobs 2]     *)

open Cmdliner
open Ppt_harness

(* The topologies --topo accepts; [scale] only shapes the leaf-spine
   fabrics. *)
let topologies =
  [ ("testbed", fun ~scale:_ ~flows ~load ~seed ->
        Config.testbed ~n_flows:flows ~load ~seed ());
    ("oversub", fun ~scale ~flows ~load ~seed ->
        Config.oversub ~scale ~n_flows:flows ~load ~seed ());
    ("fast", fun ~scale ~flows ~load ~seed ->
        Config.fast ~scale ~n_flows:flows ~load ~seed ());
    ("non-oversub", fun ~scale ~flows ~load ~seed ->
        Config.non_oversub ~scale ~n_flows:flows ~load ~seed ());
    ("dumbbell", fun ~scale:_ ~flows ~load ~seed ->
        Config.dumbbell ~n_flows:flows ~load ~seed ()) ]

let workloads =
  List.map
    (fun (d : Ppt_workload.Dists.named) -> (d.dist_name, d.cdf))
    Ppt_workload.Dists.all

(* The low-priority loop's line is printed only for a run that sent
   low-priority payload: without any, its efficiency is 0/0. A size
   class with no completed flow prints its count, not its 0/0 mean. *)
let pp_result r =
  let open Ppt_stats in
  let s = r.Runner.summary in
  let any in_class =
    List.exists (fun (f : Fct.record) -> in_class f.Fct.size) r.Runner.records
  in
  let pp_small ppf () =
    if any (fun size -> size > 0 && size <= Fct.cutoff) then
      Format.fprintf ppf "small avg     %.4f ms@,small p99     %.4f ms@,"
        s.Fct.small_avg s.Fct.small_p99
    else Format.fprintf ppf "small flows   0@,"
  in
  let pp_large ppf () =
    if any (fun size -> size > Fct.cutoff) then
      Format.fprintf ppf "large avg     %.4f ms@," s.Fct.large_avg
    else Format.fprintf ppf "large flows   0@,"
  in
  let pp_lcp ppf () =
    if s.Fct.lcp_bytes > 0 then
      Format.fprintf ppf "lcp payload   %d KB (efficiency %.3f)@,"
        (s.Fct.lcp_bytes / 1000) r.Runner.lp_efficiency
  in
  Format.printf
    "@[<v>scheme        %s@,\
     topology      %s@,\
     workload      %s @@ load %.2f@,\
     flows         %d/%d completed@,\
     overall avg   %.4f ms@,\
     %a%a\
     retransmits   %d@,\
     drops/marks   %d/%d@,\
     efficiency    %.3f@,\
     %asim events    %d@]@."
    r.Runner.r_scheme r.Runner.r_config.Config.name
    r.Runner.r_config.Config.workload_name r.Runner.r_config.Config.load
    r.Runner.completed r.Runner.requested
    s.Fct.overall_avg pp_small () pp_large ()
    s.Fct.total_retrans r.Runner.drops r.Runner.marks
    r.Runner.efficiency pp_lcp () r.Runner.events

(* ---- common options ---- *)

(* A converter that admits only what [of_string] parses and [ok]
   accepts: anything else is a usage error naming [what] was
   expected, not a crash further in. *)
let checked of_string pp ~what ok =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
  in
  Arg.conv (parse, pp)

let positive_int =
  checked int_of_string_opt Format.pp_print_int ~what:"a positive integer"
    (fun n -> n > 0)

let positive_float =
  checked float_of_string_opt Format.pp_print_float
    ~what:"a positive finite number" (fun x -> x > 0. && Float.is_finite x)

(* One of [table]'s names. The value is the name itself, since
   cmdliner compares values to print the default, and closures do not
   compare. *)
let name_of table =
  Arg.enum (List.map (fun (name, _) -> (name, name)) table)

let topo_arg =
  let doc = "Topology: " ^ Arg.doc_alts_enum topologies ^ "." in
  Arg.(value & opt (name_of topologies) "oversub"
       & info [ "topo" ] ~docv:"NAME" ~doc)

let workload_arg =
  let doc = "Workload: " ^ Arg.doc_alts_enum workloads ^ "." in
  Arg.(value & opt (name_of workloads) "web-search"
       & info [ "workload" ] ~docv:"NAME" ~doc)

let load_arg =
  let doc = "Target network load in (0, 1]." in
  let load =
    checked float_of_string_opt Format.pp_print_float
      ~what:"a load in (0, 1]" (fun l -> l > 0. && l <= 1.)
  in
  Arg.(value & opt load 0.5 & info [ "load" ] ~docv:"L" ~doc)

let flows_arg =
  let doc = "Number of flows to simulate." in
  Arg.(value & opt positive_int 500 & info [ "flows" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let full_arg =
  let doc = "Use the full-size 144-host fabric (slow)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let incast_arg =
  let doc =
    "Run an N-to-1 incast pattern instead of all-to-all; N must be \
     below the topology's host count."
  in
  Arg.(value & opt (some positive_int) None
       & info [ "incast" ] ~docv:"N" ~doc)

(* The configuration the common options describe, or a usage error
   for an incast with no host left to receive it. *)
let config_of ~topo ~workload ~load ~flows ~seed ~full ~incast =
  let scale = if full then 9 else 4 in
  let cfg =
    Config.with_workload ~name:workload (List.assoc workload workloads)
      ((List.assoc topo topologies) ~scale ~flows ~load ~seed)
  in
  match incast with
  | None -> Ok cfg
  | Some n when n < Config.n_hosts cfg ->
    Ok { cfg with Config.pattern = Config.Incast { n_senders = n } }
  | Some n ->
    Error
      (Printf.sprintf "--incast %d needs fewer senders than the %d hosts \
                       of %s" n (Config.n_hosts cfg) cfg.Config.name)

(* ---- run ---- *)

let dump_fcts path records =
  let oc = open_out path in
  output_string oc
    "flow,size_bytes,start_ns,fct_ns,retrans,hcp_payload,lcp_payload\n";
  List.iter
    (fun (r : Ppt_stats.Fct.record) ->
       Printf.fprintf oc "%d,%d,%d,%d,%d,%d,%d\n" r.Ppt_stats.Fct.flow
         r.Ppt_stats.Fct.size r.Ppt_stats.Fct.start
         (r.Ppt_stats.Fct.finish - r.Ppt_stats.Fct.start)
         r.Ppt_stats.Fct.retrans r.Ppt_stats.Fct.hcp_payload
         r.Ppt_stats.Fct.lcp_payload)
    records;
  close_out oc

let run_cmd =
  let scheme_arg =
    let doc = "Transport scheme to run (see $(b,ppt_sim list))." in
    Arg.(value & opt string "ppt" & info [ "scheme" ] ~docv:"NAME" ~doc)
  in
  let dump_arg =
    let doc = "Write per-flow results as CSV to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "dump-fcts" ] ~docv:"FILE" ~doc)
  in
  let trace_in_arg =
    let doc =
      "Replay a flow trace from $(docv) (CSV: id,src,dst,size_bytes,       start_ns) instead of generating one."
    in
    Arg.(value & opt (some string) None
         & info [ "trace-in" ] ~docv:"FILE" ~doc)
  in
  let trace_out_arg =
    let doc = "Write the generated flow trace as CSV to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let trace_events_arg =
    let doc =
      "Write a structured event trace (packet lifecycle, transport \
       state, probes) to $(docv); inspect it with $(b,ppt_trace)."
    in
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_fmt_arg =
    let doc =
      "Event trace format (with $(b,--trace)): $(b,json) writes \
       canonical JSONL, $(b,bin) the compact binary encoding \
       ($(b,ppt_trace decode) turns it back into identical JSONL)."
    in
    Arg.(value
         & opt (enum [ ("json", Config.Json); ("bin", Config.Bin) ])
             Config.Json
         & info [ "trace-fmt" ] ~docv:"FMT" ~doc)
  in
  let probe_us_arg =
    let doc =
      "Queue/link/DT probe sampling interval in microseconds (with \
       $(b,--trace))."
    in
    Arg.(value & opt positive_int 100
         & info [ "probe-interval" ] ~docv:"US" ~doc)
  in
  let faults_arg =
    let doc =
      "Inject deterministic faults from $(docv), e.g. \
       'down@2ms-5ms:link:3; ber=1e-5@0ms-50ms:core'. Clauses are \
       KIND@FROM-UNTIL:SELECTOR separated by ';' — see HACKING.md \
       for the full grammar."
    in
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let read_file path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let run topo scheme workload load flows seed full incast dump
      trace_in trace_out trace_events trace_fmt probe_us faults =
    match
      ( Schemes.find scheme,
        config_of ~topo ~workload ~load ~flows ~seed ~full ~incast )
    with
    | None, _ -> `Error (false, "unknown scheme: " ^ scheme)
    | _, Error msg -> `Error (false, msg)
    | Some s, Ok cfg ->
      let cfg =
        match trace_events with
        | None -> cfg
        | Some path ->
          Config.with_trace ~path ~fmt:trace_fmt
            ~probe_interval:(Ppt_engine.Units.us probe_us) cfg
      in
      (match
         Option.map Ppt_faults.Fault_spec.of_string faults
       with
       | Some (Error e) -> `Error (false, "bad --faults spec: " ^ e)
       | (None | Some (Ok _)) as parsed ->
      let cfg =
        match parsed with
        | Some (Ok spec) -> Config.with_faults spec cfg
        | _ -> cfg
      in
      (* A bad --trace-in file (unreadable, malformed, repeated or
         out-of-range ids, endpoints that are not hosts) is a usage
         error, not a crash. *)
      match
        Option.map
          (fun path -> Ppt_workload.Trace.of_csv (read_file path))
          trace_in
      with
      | exception (Invalid_argument msg | Sys_error msg) ->
        `Error (false, msg)
      | trace ->
      match Runner.run ?trace cfg s with
      | exception (Runner.Invalid_trace msg | Runner.Invalid_faults msg) ->
        `Error (false, msg)
      | r ->
      pp_result r;
      if faults <> None then
        Format.printf "fault drops   %d@." r.Runner.fault_drops;
      (match trace_events with
       | Some path -> Format.printf "event trace written to %s@." path
       | None -> ());
      (match trace_out with
       | Some path ->
         let oc = open_out path in
         let flows =
           match trace with Some t -> t | None -> Runner.flows cfg
         in
         output_string oc (Ppt_workload.Trace.to_csv flows);
         close_out oc;
         Format.printf "trace written to %s@." path
       | None -> ());
      (match dump with
       | Some path ->
         dump_fcts path r.Runner.records;
         Format.printf "per-flow results written to %s@." path
       | None -> ());
      `Ok ())
  in
  let term =
    Term.(ret (const run $ topo_arg $ scheme_arg $ workload_arg
               $ load_arg $ flows_arg $ seed_arg $ full_arg $ incast_arg
               $ dump_arg $ trace_in_arg $ trace_out_arg
               $ trace_events_arg $ trace_fmt_arg $ probe_us_arg
               $ faults_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one transport over one workload") term

(* ---- compare ---- *)

let compare_cmd =
  let run topo workload load flows seed full incast =
    match config_of ~topo ~workload ~load ~flows ~seed ~full ~incast with
    | Error msg -> `Error (false, msg)
    | Ok cfg ->
    let ppf = Format.std_formatter in
    Ppt_stats.Table.header ppf Figures.fct_cols;
    List.iter (fun s -> Figures.fct_row ppf (Runner.run cfg s))
      Schemes.headline;
    Format.pp_print_flush ppf ();
    `Ok ()
  in
  let term =
    Term.(ret (const run $ topo_arg $ workload_arg $ load_arg $ flows_arg
               $ seed_arg $ full_arg $ incast_arg))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run the six headline schemes over one configuration")
    term

(* ---- sweep ---- *)

(* The processors the host reports, for the [sweep] line: the
   "processor" lines of /proc/cpuinfo, or "unknown" where it cannot be
   read. *)
let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let n = ref 0 in
    (try
       while true do
         if String.starts_with ~prefix:"processor" (input_line ic) then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n = 0 then "unknown" else string_of_int !n

let sweep_cmd =
  let ids_arg =
    let doc =
      "Experiment ids to sweep (default: every registered experiment)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let flows_scale_arg =
    let doc = "Scale every experiment's flow count." in
    Arg.(value & opt positive_float 1.0
         & info [ "flows-scale" ] ~docv:"F" ~doc)
  in
  let jobs_arg =
    let doc =
      "Child processes at once, one per simulation. 1 runs them \
       serially in-process; either way the merged output is \
       byte-identical."
    in
    Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-shard timeout in seconds: a shard's child that runs longer \
       is killed and the shard re-run once in a fresh child. Needs \
       $(b,--jobs) above 1."
    in
    Arg.(value & opt (some positive_float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume from the result files under $(b,_sweep/): shards a \
       previous (possibly killed) sweep of the same ids and options \
       already completed are not re-run. Without it a sweep starts \
       from an empty directory."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-shard progress on stderr." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run ids flows_scale seed full jobs timeout resume quiet =
    let ids =
      match ids with
      | [] -> List.map (fun e -> e.Figures.e_id) Figures.all
      | ids -> ids
    in
    match
      List.find_opt (fun id -> Figures.find id = None) ids
    with
    | Some id -> `Error (false, "unknown experiment id: " ^ id)
    | None when jobs <= 1 && Option.is_some timeout ->
      `Error (false, "--timeout needs --jobs above 1")
    | None ->
      let opts = { Figures.flows_scale; seed; full } in
      let progress =
        if quiet then ignore
        else fun key -> Printf.eprintf "[sweep] done %s\n%!" key
      in
      let dir = Parallel.default_dir ids opts in
      let r =
        Parallel.sweep ~jobs ?timeout ~dir ~resume ~progress ~ids opts
      in
      (* results on stdout — byte-identical across --jobs values;
         everything else on stderr *)
      print_string r.Parallel.output;
      flush stdout;
      Printf.eprintf
        "[sweep] %d unit(s), jobs=%d, nproc=%s, wall=%.2fs, sims=%d, \
         cpu=%.2fs, events=%d%s%s\n%!"
        r.Parallel.units (max 1 jobs) (nproc ()) r.Parallel.wall
        r.Parallel.sims
        r.Parallel.cpu r.Parallel.events
        (if r.Parallel.resumed > 0 then
           Printf.sprintf ", resumed=%d" r.Parallel.resumed
         else "")
        (match r.Parallel.failures with
         | [] -> ""
         | fs -> Printf.sprintf ", FAILED=%d" (List.length fs));
      List.iter
        (fun (key, msg) ->
           Printf.eprintf "[sweep] failed shard %s: %s\n%!" key msg)
        r.Parallel.failures;
      if r.Parallel.failures = [] then `Ok ()
      else `Error (false, "sweep finished with failed shards")
  in
  let term =
    Term.(ret (const run $ ids_arg $ flows_scale_arg $ seed_arg
               $ full_arg $ jobs_arg $ timeout_arg $ resume_arg
               $ quiet_arg))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run experiments as a sharded sweep across child processes")
    term

(* ---- list ---- *)

let list_cmd =
  let run () =
    Format.printf "schemes:@.";
    List.iter (fun s -> Format.printf "  %s@." s.Schemes.s_name) Schemes.all;
    Format.printf "topologies: %s@."
      (String.concat " " (List.map fst topologies));
    Format.printf "workloads: %s@."
      (String.concat " " (List.map fst workloads));
    Format.printf "experiments:@.";
    List.iter
      (fun e ->
         Format.printf "  %-8s %s@." e.Figures.e_id e.Figures.e_descr)
      Figures.all;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List schemes, topologies and experiments")
    Term.(ret (const run $ const ()))

let () =
  let doc = "PPT: a pragmatic transport for datacenters (simulator)" in
  let info = Cmd.info "ppt_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
                    [ run_cmd; compare_cmd; sweep_cmd; list_cmd ]))
