(* Tests for the fork-based sweep runner (lib/sweep) and its harness
   glue (Parallel): frame codec, shard ordering, crash/timeout retry,
   journal resume, and the serial-vs-parallel byte-equality contract. *)

open Ppt_sweep
open Ppt_harness

let check = Alcotest.check

let tmp_path suffix =
  let p = Filename.temp_file "ppt_sweep_test" suffix in
  Sys.remove p;
  p

let value_of = function
  | Sweep.Done v -> v
  | Sweep.Failed msg -> Alcotest.fail ("unexpected failure: " ^ msg)

(* --- frame codec ------------------------------------------------------- *)

let test_frame_roundtrip () =
  (* several frames fed to the decoder in awkward chunk sizes *)
  let values = [ "alpha"; ""; String.make 100_000 'x'; "omega" ] in
  let bytes =
    String.concat "" (List.map (fun v -> Bytes.to_string (Frame.encode v))
                        values)
  in
  List.iter
    (fun chunk_size ->
       let d = Frame.decoder () in
       let got = ref [] in
       let i = ref 0 in
       let len = String.length bytes in
       while !i < len do
         let n = min chunk_size (len - !i) in
         Frame.feed d (Bytes.of_string (String.sub bytes !i n)) n;
         let rec drain () =
           match Frame.next d with
           | Some (v : string) -> got := v :: !got; drain ()
           | None -> ()
         in
         drain ();
         i := !i + n
       done;
       check Alcotest.bool
         (Printf.sprintf "roundtrip at chunk=%d" chunk_size)
         true
         (List.rev !got = values))
    [ 1; 3; 4096; 1_000_000 ]

(* --- ordering and the serial path -------------------------------------- *)

let specs_of l =
  List.map (fun (k, f) -> { Sweep.key = k; run = f }) l

let test_canonical_order () =
  (* whatever order units finish in, shards come back in input order *)
  let mk jobs =
    let r =
      Sweep.run ~jobs
        (specs_of
           [ ("c", fun () -> Unix.sleepf 0.05; 3);
             ("a", fun () -> 1);
             ("b", fun () -> Unix.sleepf 0.02; 2) ])
    in
    List.map (fun s -> (s.Sweep.s_key, value_of s.Sweep.s_outcome))
      r.Sweep.shards
  in
  let expect = [ ("c", 3); ("a", 1); ("b", 2) ] in
  check Alcotest.bool "serial order" true (mk 1 = expect);
  check Alcotest.bool "parallel order" true (mk 3 = expect)

let test_duplicate_keys_rejected () =
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Sweep.run: duplicate unit key a")
    (fun () ->
       ignore (Sweep.run (specs_of [ ("a", fun () -> 0);
                                     ("a", fun () -> 1) ])))

(* --- crash isolation and retry ----------------------------------------- *)

let test_retry_after_worker_death () =
  (* first attempt SIGKILLs its own worker; the retry (fresh worker,
     marker file now present) succeeds *)
  let marker = tmp_path ".marker" in
  let unit_run () =
    if Sys.file_exists marker then 42
    else begin
      let oc = open_out marker in
      close_out oc;
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      0 (* unreachable *)
    end
  in
  let r =
    Sweep.run ~jobs:2 ~retries:1
      (specs_of [ ("steady", (fun () -> 7)); ("crasher", unit_run) ])
  in
  (try Sys.remove marker with Sys_error _ -> ());
  let shard k =
    List.find (fun s -> s.Sweep.s_key = k) r.Sweep.shards
  in
  check Alcotest.int "steady unit unaffected" 7
    (value_of (shard "steady").Sweep.s_outcome);
  check Alcotest.int "crasher succeeds on retry" 42
    (value_of (shard "crasher").Sweep.s_outcome);
  check Alcotest.int "crasher took two attempts" 2
    (shard "crasher").Sweep.s_attempts

let test_retries_exhausted () =
  (* a unit that dies every time ends Failed, not fatal to the sweep *)
  let r =
    Sweep.run ~jobs:2 ~retries:1
      (specs_of
         [ ("ok", (fun () -> 1));
           ("dead", fun () -> Unix.kill (Unix.getpid ()) Sys.sigkill; 0) ])
  in
  let shard k =
    List.find (fun s -> s.Sweep.s_key = k) r.Sweep.shards
  in
  check Alcotest.int "healthy unit still completes" 1
    (value_of (shard "ok").Sweep.s_outcome);
  (match (shard "dead").Sweep.s_outcome with
   | Sweep.Failed _ -> ()
   | Sweep.Done _ -> Alcotest.fail "dead unit cannot succeed")

let test_timeout_kills_shard () =
  let r =
    Sweep.run ~jobs:2 ~timeout:0.3 ~retries:0
      (specs_of
         [ ("fast", (fun () -> 1));
           ("stuck", fun () -> Unix.sleepf 30.; 2) ])
  in
  let shard k =
    List.find (fun s -> s.Sweep.s_key = k) r.Sweep.shards
  in
  check Alcotest.int "fast unit completes" 1
    (value_of (shard "fast").Sweep.s_outcome);
  (match (shard "stuck").Sweep.s_outcome with
   | Sweep.Failed msg ->
     check Alcotest.bool "reason mentions the timeout" true
       (String.length msg >= 9
        && String.sub msg (String.length msg - 9) 9 = "timed out")
   | Sweep.Done _ -> Alcotest.fail "stuck unit cannot succeed")

let test_exception_is_failed_without_retry () =
  List.iter
    (fun jobs ->
       let r =
         Sweep.run ~jobs ~retries:3
           (specs_of
              [ ("boom", fun () -> if true then failwith "kaput") ])
       in
       let s = List.hd r.Sweep.shards in
       (match s.Sweep.s_outcome with
        | Sweep.Failed msg ->
          check Alcotest.bool
            (Printf.sprintf "jobs=%d: exception text kept" jobs)
            true
            (String.length msg > 0)
        | Sweep.Done () -> Alcotest.fail "exception cannot succeed");
       check Alcotest.int
         (Printf.sprintf "jobs=%d: deterministic failure, one attempt"
            jobs)
         1 s.Sweep.s_attempts)
    [ 1; 2 ]

(* --- journal and resume ------------------------------------------------ *)

let test_resume_skips_completed () =
  let path = tmp_path ".journal" in
  (* first sweep: two units succeed (journaled), one fails (not) *)
  let r1 =
    Sweep.run ~journal:path
      (specs_of
         [ ("a", (fun () -> 1)); ("b", (fun () -> 2));
           ("c", fun () -> failwith "broken") ])
  in
  check Alcotest.int "nothing resumed on a fresh journal" 0
    r1.Sweep.r_resumed;
  (* second sweep, resumed: a and b come from the journal (sentinels
     prove they never re-ran), c runs for real this time *)
  let r2 =
    Sweep.run ~journal:path ~resume:true
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
  Sys.remove path

let test_resume_tolerates_corrupt_tail () =
  let path = tmp_path ".journal" in
  let r1 =
    Sweep.run ~journal:path
      (specs_of [ ("a", (fun () -> 1)); ("b", fun () -> 2) ])
  in
  check Alcotest.int "both journaled" 2
    (List.length
       (List.filter
          (fun s -> s.Sweep.s_outcome = Sweep.Done 1
                    || s.Sweep.s_outcome = Sweep.Done 2)
          r1.Sweep.shards));
  (* simulate a sweep killed mid-append: garbage after the last
     complete entry *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x01garbage-tail";
  close_out oc;
  let r2 =
    Sweep.run ~journal:path ~resume:true
      (specs_of [ ("a", (fun () -> 99)); ("b", fun () -> 99) ])
  in
  check Alcotest.int "complete entries recovered" 2 r2.Sweep.r_resumed;
  Sys.remove path

(* A journal damaged after the fact, cut at any byte or with any one
   bit flipped: resuming keeps exactly the entries written before the
   first damaged frame (none when the header is hit), and never
   raises. *)
let prop_resume_keeps_intact_prefix =
  QCheck.Test.make ~name:"journal: resume keeps exactly the intact prefix"
    ~count:300
    QCheck.(triple (int_range 0 4) bool (int_range 0 max_int))
    (fun (n_entries, cut, pos) ->
       let path = tmp_path ".journal" in
       let keys = [ "u0"; "u1"; "u2"; "u3" ] in
       let size () = (Unix.stat path).Unix.st_size in
       let j, _ = Journal.open_ ~path ~keys ~resume:false in
       let header_end = size () in
       let written =
         List.filteri (fun i _ -> i < n_entries) keys
         |> List.mapi (fun i key ->
             let v = (i, String.make (i * 37) 'x') in
             Journal.append j ~key v ~wall:(float_of_int i);
             ((key, v, float_of_int i), size ()))
       in
       Journal.close j;
       let data = In_channel.with_open_bin path In_channel.input_all in
       let len = String.length data in
       (* the first byte that is no longer as written *)
       let damaged, first_bad =
         if cut then
           let l = pos mod (len + 1) in
           (String.sub data 0 l, l)
         else begin
           let bit = pos mod (8 * len) in
           let b = Bytes.of_string data in
           Bytes.set b (bit / 8)
             (Char.chr (Char.code data.[bit / 8] lxor (1 lsl (bit mod 8))));
           (Bytes.to_string b, bit / 8)
         end
       in
       Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc damaged);
       let j, (got : (string * (int * string) * float) list) =
         Journal.open_ ~path ~keys ~resume:true
       in
       Journal.close j;
       Sys.remove path;
       let expected =
         if first_bad < header_end then []
         else
           List.filter_map
             (fun (e, ends) -> if ends <= first_bad then Some e else None)
             written
       in
       got = expected)

(* The journal header's layout, mirrored to forge journals that
   another build wrote: same magic and keys, another version. *)
type journal_header = {
  h_magic : string;
  h_version : int;
  h_keys : string list;
}

let test_resume_rejects_other_version () =
  let keys = [ "a"; "b" ] in
  let path = tmp_path ".journal" in
  let j, _ = Journal.open_ ~path ~keys ~resume:false in
  Journal.close j;
  let current =
    In_channel.with_open_bin path (fun ic ->
        match (Frame.read_channel ic : journal_header option) with
        | Some h -> h
        | None -> Alcotest.fail "fresh journal has no header")
  in
  check Alcotest.bool "mirrored header reads back" true
    (current.h_keys = keys);
  (* a journal of [version] holding one entry; the payload is a v3
     shard, (fragment, events, Gc snapshot) *)
  let v3_entry = ("a", ("frag", 7, (1., 2., 3)), 0.5) in
  let forge version =
    Out_channel.with_open_bin path (fun oc ->
        Frame.write_channel oc { current with h_version = version };
        Frame.write_channel oc v3_entry)
  in
  (* control: the forged layout resumes at the current version *)
  forge current.h_version;
  let j, entries = Journal.open_ ~path ~keys ~resume:true in
  Journal.close j;
  check Alcotest.bool "same version resumes" true (entries = [ v3_entry ]);
  let resume () : Journal.t * (string * int * float) list =
    Journal.open_ ~path ~keys ~resume:true
  in
  List.iter
    (fun version ->
       forge version;
       let j, entries = resume () in
       check Alcotest.int
         (Printf.sprintf "version %d: started fresh" version)
         0 (List.length entries);
       Journal.append j ~key:"b" 2 ~wall:0.25;
       Journal.close j;
       let j, entries = resume () in
       Journal.close j;
       check Alcotest.bool
         (Printf.sprintf "version %d: later appends resume" version)
         true
         (entries = [ ("b", 2, 0.25) ]))
    [ current.h_version - 1; current.h_version + 1 ];
  Sys.remove path

let test_resume_rejects_mismatched_keys () =
  let path = tmp_path ".journal" in
  ignore (Sweep.run ~journal:path (specs_of [ ("a", fun () -> 1) ]));
  (* different unit list: the journal must not be trusted *)
  let r =
    Sweep.run ~journal:path ~resume:true
      (specs_of [ ("a", (fun () -> 5)); ("b", fun () -> 6) ])
  in
  check Alcotest.int "nothing resumed across unit lists" 0
    r.Sweep.r_resumed;
  check Alcotest.bool "units re-ran" true
    (List.map (fun s -> value_of s.Sweep.s_outcome) r.Sweep.shards
     = [ 5; 6 ]);
  Sys.remove path

let test_resume_after_midrun_kill () =
  (* a sweep driver killed mid-run leaves a journal a later --resume
     can pick up. The driver runs in a fork; its third unit SIGKILLs
     the driver from inside a worker once the first unit is safely
     journaled. *)
  let path = tmp_path ".journal" in
  flush stdout; flush stderr;
  (match Unix.fork () with
   | 0 ->
     (* sweep driver: a completes instantly; "slow" keeps one worker
        busy; "killer" shoots the driver *)
     ignore
       (Sweep.run ~jobs:2 ~journal:path
          (specs_of
             [ ("a", (fun () -> 1));
               ("slow", (fun () -> Unix.sleepf 30.; 2));
               ("killer",
                fun () ->
                  Unix.sleepf 0.3;
                  Unix.kill (Unix.getppid ()) Sys.sigkill;
                  Unix.sleepf 30.;
                  3) ]));
     Unix._exit 0
   | pid ->
     let _, status = Unix.waitpid [] pid in
     check Alcotest.bool "driver was killed" true
       (status = Unix.WSIGNALED Sys.sigkill));
  let r =
    Sweep.run ~resume:true ~journal:path
      (specs_of
         [ ("a", (fun () -> 99));
           ("slow", (fun () -> 2));
           ("killer", fun () -> 3) ])
  in
  check Alcotest.int "finished shard survived the kill" 1
    r.Sweep.r_resumed;
  check Alcotest.bool "resumed run completes the rest" true
    (List.map (fun s -> value_of s.Sweep.s_outcome) r.Sweep.shards
     = [ 1; 2; 3 ]);
  Sys.remove path

(* --- harness glue: byte equality --------------------------------------- *)

let test_parallel_byte_equality () =
  (* the sweep contract: the serial [Figures.render], `sweep --jobs 1`
     and `sweep --jobs 4` emit byte-identical output *)
  let opts = { Figures.default_opts with Figures.flows_scale = 0.1 } in
  let serial = Parallel.sweep ~jobs:1 ~ids:[ "fig10" ] opts in
  let par = Parallel.sweep ~jobs:4 ~ids:[ "fig10" ] opts in
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
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Parallel.sweep: unknown experiment fig99")
    (fun () ->
       ignore
         (Parallel.sweep ~ids:[ "fig99" ] Figures.default_opts))

let suite =
  [ Alcotest.test_case "frame: roundtrip in chunks" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "sweep: canonical shard order" `Quick
      test_canonical_order;
    Alcotest.test_case "sweep: duplicate keys rejected" `Quick
      test_duplicate_keys_rejected;
    Alcotest.test_case "sweep: retry after worker death" `Quick
      test_retry_after_worker_death;
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
    QCheck_alcotest.to_alcotest prop_resume_keeps_intact_prefix;
    Alcotest.test_case "journal: mismatched keys rejected" `Quick
      test_resume_rejects_mismatched_keys;
    Alcotest.test_case "journal: other version started fresh" `Quick
      test_resume_rejects_other_version;
    Alcotest.test_case "journal: resume after mid-run kill" `Quick
      test_resume_after_midrun_kill;
    Alcotest.test_case "parallel: byte equality" `Slow
      test_parallel_byte_equality;
    Alcotest.test_case "parallel: unknown id" `Quick
      test_parallel_unknown_id ]
