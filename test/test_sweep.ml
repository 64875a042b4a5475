(* Tests for the fork-based sweep runner (lib/sweep) and its harness
   glue (Parallel): shard ordering, crash/timeout retry, resuming from
   the result files, and the serial-vs-parallel byte-equality contract.
   The "journal:" cases test what a resumed sweep reuses of the result
   directory a previous sweep left. *)

open Ppt_sweep
open Ppt_harness

let check = Alcotest.check

let value_of = function
  | Sweep.Done read -> read ()
  | Sweep.Failed msg -> Alcotest.fail ("unexpected failure: " ^ msg)

(* Run [f] on a fresh sweep directory, removed with its files after. *)
let with_dir f =
  let dir = Filename.temp_file "ppt_sweep_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let clear () =
    if Sys.file_exists dir then begin
      Array.iter (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:clear (fun () -> f dir)

(* The result file of [key], named as sweep.mli documents. *)
let file_of dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc data)

let specs_of l =
  List.map (fun (k, f) -> { Sweep.key = k; run = f }) l

let shard r k = List.find (fun s -> s.Sweep.s_key = k) r.Sweep.shards

(* --- ordering and the serial path -------------------------------------- *)

let test_canonical_order () =
  (* whatever order units finish in, shards come back in input order *)
  let mk jobs =
    with_dir (fun dir ->
        let r =
          Sweep.run ~jobs ~dir
            (specs_of
               [ ("c", fun () -> Unix.sleepf 0.05; 3);
                 ("a", fun () -> 1);
                 ("b", fun () -> Unix.sleepf 0.02; 2) ])
        in
        List.map (fun s -> (s.Sweep.s_key, value_of s.Sweep.s_outcome))
          r.Sweep.shards)
  in
  let expect = [ ("c", 3); ("a", 1); ("b", 2) ] in
  check Alcotest.bool "serial order" true (mk 1 = expect);
  check Alcotest.bool "parallel order" true (mk 3 = expect)

let test_duplicate_keys_rejected () =
  with_dir (fun dir ->
      Alcotest.check_raises "duplicate key"
        (Invalid_argument "Sweep.run: duplicate unit key a")
        (fun () ->
           ignore (Sweep.run ~dir (specs_of [ ("a", fun () -> 0);
                                              ("a", fun () -> 1) ])));
      (* only a forked child can be timed *)
      Alcotest.check_raises "timeout in-process"
        (Invalid_argument "Sweep.run: a timeout needs jobs > 1")
        (fun () ->
           ignore (Sweep.run ~jobs:1 ~timeout:1. ~dir
                     (specs_of [ ("a", fun () -> 0) ]))))

(* --- crash isolation and retry ----------------------------------------- *)

let test_retry_after_child_death () =
  (* the first attempt SIGKILLs its own child; the retry (a fresh child,
     the marker file now present) succeeds *)
  with_dir (fun dir ->
      let marker = Filename.concat dir "marker" in
      let unit_run () =
        if Sys.file_exists marker then 42
        else begin
          close_out (open_out marker);
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          0 (* unreachable *)
        end
      in
      let r =
        Sweep.run ~jobs:2 ~dir
          (specs_of [ ("steady", (fun () -> 7)); ("crasher", unit_run) ])
      in
      check Alcotest.int "steady unit unaffected" 7
        (value_of (shard r "steady").Sweep.s_outcome);
      check Alcotest.int "crasher succeeds on retry" 42
        (value_of (shard r "crasher").Sweep.s_outcome);
      check Alcotest.int "crasher took two attempts" 2
        (shard r "crasher").Sweep.s_attempts)

let test_retries_exhausted () =
  (* a unit that dies every time ends Failed, not fatal to the sweep *)
  with_dir (fun dir ->
      let r =
        Sweep.run ~jobs:2 ~dir
          (specs_of
             [ ("ok", (fun () -> 1));
               ("dead",
                fun () -> Unix.kill (Unix.getpid ()) Sys.sigkill; 0) ])
      in
      check Alcotest.int "healthy unit still completes" 1
        (value_of (shard r "ok").Sweep.s_outcome);
      (match (shard r "dead").Sweep.s_outcome with
       | Sweep.Failed _ -> ()
       | Sweep.Done _ -> Alcotest.fail "dead unit cannot succeed");
      check Alcotest.int "dead unit tried twice" 2
        (shard r "dead").Sweep.s_attempts)

let test_timeout_kills_shard () =
  with_dir (fun dir ->
      let r =
        Sweep.run ~jobs:2 ~timeout:0.3 ~dir
          (specs_of
             [ ("fast", (fun () -> 1));
               ("stuck", fun () -> Unix.sleepf 30.; 2) ])
      in
      check Alcotest.int "fast unit completes" 1
        (value_of (shard r "fast").Sweep.s_outcome);
      (match (shard r "stuck").Sweep.s_outcome with
       | Sweep.Failed msg ->
         check Alcotest.string "reason names the timeout"
           "unit stuck timed out" msg
       | Sweep.Done _ -> Alcotest.fail "stuck unit cannot succeed");
      check Alcotest.int "stuck unit retried once" 2
        (shard r "stuck").Sweep.s_attempts)

let test_exception_is_failed_without_retry () =
  List.iter
    (fun jobs ->
       with_dir (fun dir ->
           let r =
             Sweep.run ~jobs ~dir
               (specs_of
                  [ ("boom", fun () -> if true then failwith "kaput") ])
           in
           let s = List.hd r.Sweep.shards in
           (match s.Sweep.s_outcome with
            | Sweep.Failed msg ->
              check Alcotest.string
                (Printf.sprintf "jobs=%d: exception text kept" jobs)
                "Failure(\"kaput\")" msg
            | Sweep.Done _ -> Alcotest.fail "exception cannot succeed");
           check Alcotest.int
             (Printf.sprintf "jobs=%d: deterministic failure, one attempt"
                jobs)
             1 s.Sweep.s_attempts))
    [ 1; 2 ]

(* --- resume ------------------------------------------------------------ *)

(* What can happen to a result file between two sweeps. *)
type damage =
  | Truncate of int    (* cut 1 + this many bytes (modulo its length)
                          off its end *)
  | Flip of int        (* flip this bit, counted from its end, modulo
                          its length in bits *)
  | Delete
  | Other_version      (* the header's format version, plus one *)
  | Other_key          (* another unit's file in its place *)

let damage dir key ~other_file = function
  | Truncate n ->
    let data = read_file (file_of dir key) in
    let len = String.length data in
    write_file (file_of dir key) (String.sub data 0 (len - 1 - n mod len))
  | Flip n ->
    let data = Bytes.of_string (read_file (file_of dir key)) in
    let bit = 8 * Bytes.length data - 1 - n mod (8 * Bytes.length data) in
    Bytes.set data (bit / 8)
      (Char.chr
         (Char.code (Bytes.get data (bit / 8)) lxor (1 lsl (bit mod 8))));
    write_file (file_of dir key) (Bytes.to_string data)
  | Delete -> Sys.remove (file_of dir key)
  | Other_version ->
    let data = read_file (file_of dir key) in
    let nl = String.index data '\n' in
    let v = String.rindex_from data nl ' ' in
    let version = int_of_string (String.sub data (v + 1) (nl - v - 1)) in
    write_file (file_of dir key)
      (String.sub data 0 (v + 1) ^ string_of_int (version + 1)
       ^ String.sub data nl (String.length data - nl))
  | Other_key -> write_file (file_of dir key) other_file

let keys = [ "u0"; "u1"; "u2"; "u3"; "u4" ]
let value_at i = (i, String.make (i * 37) 'x')

(* Sweep [keys] into [dir], apply [damaged] (key, damage) to its files,
   resume: the keys that re-ran, in order, and the resumed report. *)
let resume_after_damage dir damaged =
  let units rerun =
    List.mapi
      (fun i k -> (k, fun () -> rerun := k :: !rerun; value_at i))
      keys
  in
  ignore (Sweep.run ~dir (specs_of (units (ref []))));
  let files = List.map (fun k -> read_file (file_of dir k)) keys in
  List.iteri
    (fun i k ->
       Option.iter
         (damage dir k ~other_file:(List.nth files ((i + 1) mod 5)))
         (List.assoc_opt k damaged))
    keys;
  let rerun = ref [] in
  let r = Sweep.run ~dir ~resume:true (specs_of (units rerun)) in
  (List.rev !rerun, r)

let check_resumed what (rerun, r) ~expect =
  check Alcotest.(list string) (what ^ ": re-ran") expect rerun;
  check Alcotest.int (what ^ ": resumed") (5 - List.length expect)
    r.Sweep.r_resumed;
  check Alcotest.bool (what ^ ": every value") true
    (List.map (fun s -> value_of s.Sweep.s_outcome) r.Sweep.shards
     = List.mapi (fun i _ -> value_at i) keys)

(* Any subset of a sweep's result files damaged after the fact, each in
   any of the ways above: resuming re-runs exactly that subset, reuses
   the rest, and never raises. *)
let prop_resume_reruns_damaged =
  QCheck.Test.make ~name:"journal: resume re-runs damaged files"
    ~count:200
    QCheck.(
      pair (int_bound 31)
        (list_of_size (Gen.return 5)
           (pair (int_bound 4) (int_bound 1_000_000))))
    (fun (subset, kinds) ->
       let damaged =
         List.combine keys kinds
         |> List.filteri (fun i _ -> subset land (1 lsl i) <> 0)
         |> List.map (fun (k, (kind, n)) ->
             ( k,
               match kind with
               | 0 -> Truncate n
               | 1 -> Flip n
               | 2 -> Delete
               | 3 -> Other_version
               | _ -> Other_key ))
       in
       with_dir (fun dir ->
           let rerun, r = resume_after_damage dir damaged in
           rerun = List.map fst damaged
           && r.Sweep.r_resumed = 5 - List.length damaged
           && List.map (fun s -> value_of s.Sweep.s_outcome) r.Sweep.shards
              = List.mapi (fun i _ -> value_at i) keys))

let test_resume_skips_completed () =
  with_dir (fun dir ->
      (* first sweep: two units succeed, one raises *)
      let r1 =
        Sweep.run ~dir
          (specs_of
             [ ("a", (fun () -> 1)); ("b", (fun () -> 2));
               ("c", fun () -> failwith "broken") ])
      in
      check Alcotest.int "nothing resumed in a fresh directory" 0
        r1.Sweep.r_resumed;
      (* resumed: a and b come from their files (sentinels prove they
         never re-ran); c's file holds an exception, so c runs again *)
      let r2 =
        Sweep.run ~dir ~resume:true
          (specs_of
             [ ("a", (fun () -> 99)); ("b", (fun () -> 99));
               ("c", fun () -> 3) ])
      in
      check Alcotest.int "two shards resumed" 2 r2.Sweep.r_resumed;
      let got =
        List.map
          (fun s ->
             (s.Sweep.s_key, value_of s.Sweep.s_outcome, s.Sweep.s_cached))
          r2.Sweep.shards
      in
      check Alcotest.bool "cached values, fresh c" true
        (got = [ ("a", 1, true); ("b", 2, true); ("c", 3, false) ]);
      (* without --resume the directory starts empty: all run again *)
      let r3 =
        Sweep.run ~dir
          (specs_of [ ("a", (fun () -> 5)); ("b", fun () -> 6) ])
      in
      check Alcotest.int "a fresh sweep resumes nothing" 0
        r3.Sweep.r_resumed;
      check Alcotest.int "only its own files are left" 2
        (Array.length (Sys.readdir dir)))

let test_resume_tolerates_corrupt_tail () =
  with_dir (fun dir ->
      check_resumed "cut and flipped tails"
        (resume_after_damage dir
           [ ("u1", Truncate 0); ("u3", Flip 0) ])
        ~expect:[ "u1"; "u3" ])

let test_resume_rejects_mismatched_keys () =
  with_dir (fun dir ->
      check_resumed "another unit's file"
        (resume_after_damage dir [ ("u2", Other_key) ])
        ~expect:[ "u2" ])

let test_resume_rejects_other_version () =
  with_dir (fun dir ->
      check_resumed "another version"
        (resume_after_damage dir [ ("u0", Other_version) ])
        ~expect:[ "u0" ])

let test_resume_after_midrun_kill () =
  (* a sweep killed mid-run leaves result files a later --resume picks
     up. The sweep runs in a fork; "killer" SIGKILLs it from inside its
     child once "a" has written its file, then dies itself. *)
  with_dir (fun dir ->
      flush stdout;
      flush stderr;
      (match Unix.fork () with
       | 0 ->
         let killer () =
           let t0 = Unix.gettimeofday () in
           while
             not (Sys.file_exists (file_of dir "a"))
             && Unix.gettimeofday () -. t0 < 10.
           do
             Unix.sleepf 0.01
           done;
           Unix.kill (Unix.getppid ()) Sys.sigkill;
           Unix.kill (Unix.getpid ()) Sys.sigkill;
           0
         in
         (try
            ignore
              (Sweep.run ~jobs:2 ~dir
                 (specs_of [ ("a", (fun () -> 1)); ("killer", killer) ]))
          with _ -> ());
         Unix._exit 0
       | pid ->
         let _, status = Unix.waitpid [] pid in
         check Alcotest.bool "sweep was killed" true
           (status = Unix.WSIGNALED Sys.sigkill));
      let r =
        Sweep.run ~resume:true ~dir
          (specs_of [ ("a", (fun () -> 99)); ("killer", fun () -> 3) ])
      in
      check Alcotest.int "finished shard survived the kill" 1
        r.Sweep.r_resumed;
      check Alcotest.bool "resumed run completes the rest" true
        (List.map (fun s -> value_of s.Sweep.s_outcome) r.Sweep.shards
         = [ 1; 3 ]))

(* --- harness glue: byte equality --------------------------------------- *)

let test_parallel_byte_equality () =
  (* the sweep contract: the serial [Figures.render], `sweep --jobs 1`
     and `sweep --jobs 4` emit byte-identical output *)
  let opts = { Figures.default_opts with Figures.flows_scale = 0.1 } in
  let sweep jobs =
    with_dir (fun dir -> Parallel.sweep ~jobs ~dir ~ids:[ "fig10" ] opts)
  in
  let serial = sweep 1 and par = sweep 4 in
  check Alcotest.string "serial = parallel, byte for byte"
    serial.Parallel.output par.Parallel.output;
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  (match Figures.find "fig10" with
   | Some e -> Figures.render e opts ppf
   | None -> Alcotest.fail "fig10 missing");
  Format.pp_print_flush ppf ();
  check Alcotest.string "figure render = sweep output"
    (Buffer.contents buf) serial.Parallel.output;
  check Alcotest.bool "events counted across processes" true
    (par.Parallel.events > 0
     && par.Parallel.events = serial.Parallel.events)

let test_parallel_unknown_id () =
  with_dir (fun dir ->
      Alcotest.check_raises "unknown id"
        (Invalid_argument "Parallel.sweep: unknown experiment fig99")
        (fun () ->
           ignore (Parallel.sweep ~dir ~ids:[ "fig99" ] Figures.default_opts)))

(* Experiments that share simulations run each of them once: a sweep of
   fig12, fig15 and fig25 (all on the web-search fabric, all with a PPT
   row) runs fewer shards than it has units that need a simulation,
   and prints exactly what the three single-experiment sweeps print. *)
let test_parallel_shares_sims () =
  let opts = { Figures.default_opts with Figures.flows_scale = 0.01 } in
  let ids = [ "fig12"; "fig15"; "fig25" ] in
  let sweep ids = with_dir (fun dir -> Parallel.sweep ~dir ~ids opts) in
  let together = sweep ids in
  let alone = List.map (fun id -> sweep [ id ]) ids in
  let sim_units =
    List.length
      (List.filter
         (fun (u : Figures.unit_of_work) -> u.Figures.u_sims <> [])
         (List.concat_map
            (fun id ->
               match Figures.find id with
               | Some e -> e.Figures.e_units opts
               | None -> Alcotest.fail ("missing " ^ id))
            ids))
  in
  check Alcotest.bool
    (Printf.sprintf "%d shards < %d simulation units" together.Parallel.sims
       sim_units)
    true
    (together.Parallel.sims < sim_units);
  check Alcotest.string "= the single-experiment sweeps, concatenated"
    (String.concat "" (List.map (fun r -> r.Parallel.output) alone))
    together.Parallel.output

(* A harness sweep that lost some result files resumes to the same
   bytes: every other simulation's file deleted, and fig2's DCTCP run
   with the hypothetical run that reads it, which then reads the re-run
   DCTCP file in the second phase. *)
let test_parallel_resume () =
  let opts = { Figures.default_opts with Figures.flows_scale = 0.01 } in
  let ids = [ "fig2"; "fig10" ] in
  let sims =
    Figures.distinct
      (List.concat_map
         (fun id -> (Option.get (Figures.find id)).Figures.e_units opts)
         ids)
  in
  let needed =
    List.filter_map
      (fun (s : Figures.sim) ->
         Option.map (fun (r : Figures.sim) -> r.Figures.key) s.Figures.needs)
      sims
  in
  check Alcotest.bool "the hypothetical run reads fig2's dctcp row" true
    (List.exists (String.starts_with ~prefix:"dctcp/") needed);
  let lost =
    List.filteri
      (fun i (s : Figures.sim) ->
         i mod 2 = 0 || Option.is_some s.Figures.needs
         || List.mem s.Figures.key needed)
      sims
  in
  with_dir (fun dir ->
      let full = Parallel.sweep ~jobs:2 ~dir ~ids opts in
      check Alcotest.int "one file per simulation" full.Parallel.sims
        (Array.length (Sys.readdir dir));
      List.iter (fun (s : Figures.sim) -> Sys.remove (file_of dir s.Figures.key))
        lost;
      let resumed = Parallel.sweep ~jobs:2 ~dir ~resume:true ~ids opts in
      check Alcotest.int "every file left resumed"
        (full.Parallel.sims - List.length lost) resumed.Parallel.resumed;
      check Alcotest.string "resumed output = uninterrupted output"
        full.Parallel.output resumed.Parallel.output;
      check Alcotest.int "same events" full.Parallel.events
        resumed.Parallel.events)

let suite =
  [ Alcotest.test_case "sweep: canonical shard order" `Quick
      test_canonical_order;
    Alcotest.test_case "sweep: duplicate keys rejected" `Quick
      test_duplicate_keys_rejected;
    Alcotest.test_case "sweep: retry after worker death" `Quick
      test_retry_after_child_death;
    Alcotest.test_case "sweep: retries exhausted" `Quick
      test_retries_exhausted;
    Alcotest.test_case "sweep: timeout kills shard" `Quick
      test_timeout_kills_shard;
    Alcotest.test_case "sweep: exception fails without retry" `Quick
      test_exception_is_failed_without_retry;
    Alcotest.test_case "journal: resume skips completed" `Quick
      test_resume_skips_completed;
    Alcotest.test_case "journal: corrupt tail tolerated" `Quick
      test_resume_tolerates_corrupt_tail;
    QCheck_alcotest.to_alcotest prop_resume_reruns_damaged;
    Alcotest.test_case "journal: mismatched keys rejected" `Quick
      test_resume_rejects_mismatched_keys;
    Alcotest.test_case "journal: other version started fresh" `Quick
      test_resume_rejects_other_version;
    Alcotest.test_case "journal: resume after mid-run kill" `Quick
      test_resume_after_midrun_kill;
    Alcotest.test_case "parallel: byte equality" `Slow
      test_parallel_byte_equality;
    Alcotest.test_case "parallel: unknown id" `Quick
      test_parallel_unknown_id;
    Alcotest.test_case "parallel: shared simulations run once" `Quick
      test_parallel_shares_sims;
    Alcotest.test_case "parallel: resume after a cut journal" `Quick
      test_parallel_resume ]
