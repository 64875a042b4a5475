(* ppt_trace: inspect event traces written by `ppt_sim run --trace`
   (or any Ppt_obs.Trace sink), in either format.

     ppt_trace summary out.jsonl
     ppt_trace diff a.jsonl b.bin
     ppt_trace decode out.bin > out.jsonl

   `summary` prints event counts, per-port occupancy peaks and the
   mark rate; `diff` compares two traces event for event and, when
   they diverge, shows the first differing event plus the per-event
   count deltas; `decode` writes a trace as canonical JSONL, which for
   a binary trace (`--trace-fmt bin`) is byte-identical to the JSONL
   trace of the same run. Every command reads both formats: a file
   that starts with the binary magic is binary, anything else JSONL.
   Corrupt input is reported as `file:position: message` (a line
   number for JSONL, a byte offset for binary) with exit status 2. *)

open Cmdliner
open Ppt_obs

(* Run a command, turning corrupt input into [file:position: message]
   on stderr and exit status 2. *)
let reading f =
  try f ()
  with Reader.Corrupt (path, pos, msg) ->
    Printf.eprintf "%s:%d: %s\n" path pos msg;
    exit 2

let file_pos n ~docv ~doc =
  Arg.(required & pos n (some file) None & info [] ~docv ~doc)

(* ---- summary ---- *)

let summary_cmd =
  let run path =
    reading @@ fun () ->
    Format.printf "%a@." Summary.pp
      (Reader.with_file path (fun r ->
           Reader.fold r Summary.add (Summary.create ())));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"Summarize one event trace")
    Term.(ret (const run
               $ file_pos 0 ~docv:"FILE" ~doc:"Event trace to summarize."))

(* ---- diff ---- *)

let count_deltas sa sb =
  let ta = Summary.by_tag sa and tb = Summary.by_tag sb in
  let get t tag = Option.value ~default:0 (List.assoc_opt tag t) in
  List.filter_map
    (fun tag ->
       let na = get ta tag and nb = get tb tag in
       if na = nb then None else Some (tag, na, nb))
    (List.sort_uniq compare (List.map fst ta @ List.map fst tb))

(* Both traces are read in lockstep, one event each at a time, keeping
   only the first differing pair and a summary of each side. Both are
   read to the end before anything is printed, so a corrupt trace
   prints nothing on stdout; when both are corrupt, the first one's
   error is the one reported. *)
let diff_cmd =
  let run pa pb =
    reading @@ fun () ->
    Reader.with_file pa @@ fun ra ->
    Reader.with_file pb @@ fun rb ->
    let sa = Summary.create () and sb = Summary.create () in
    let add s = function
      | Some (ts, ev) -> ignore (Summary.add s ts ev)
      | None -> ()
    in
    let rest r s = ignore (Reader.fold r Summary.add s) in
    let next_b () =
      try Reader.next rb with Reader.Corrupt _ as e -> rest ra sa; raise e
    in
    let rec first_diff i =
      let a = Reader.next ra in
      let b = next_b () in
      add sa a; add sb b;
      if a = None && b = None then None
      else if a = b then first_diff (i + 1)
      else Some (i, a, b)
    in
    let found = first_diff 0 in
    rest ra sa; rest rb sb;
    let na = sa.Summary.events and nb = sb.Summary.events in
    match found with
    | None ->
      Format.printf "traces identical (%d events)@." na;
      `Ok ()
    | Some (i, a, b) ->
      let show = function
        | Some (ts, ev) -> Event.to_json_line ~ts ev
        | None -> "<end of trace>"
      in
      Format.printf "traces differ at event %d:@." (i + 1);
      Format.printf "  %s: %s@." pa (show a);
      Format.printf "  %s: %s@." pb (show b);
      let deltas = count_deltas sa sb in
      if deltas <> [] then begin
        Format.printf "event-count deltas:@.";
        List.iter
          (fun (tag, na, nb) ->
             Format.printf "  %-12s %d vs %d@." tag na nb)
          deltas
      end;
      Format.printf "(%d vs %d events total)@." na nb;
      `Error (false, "traces differ")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two event traces event for event")
    Term.(ret (const run
               $ file_pos 0 ~docv:"A" ~doc:"First trace."
               $ file_pos 1 ~docv:"B" ~doc:"Second trace."))

(* ---- decode ---- *)

let decode_cmd =
  let out_arg =
    let doc = "Write the JSONL to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run path out =
    reading @@ fun () ->
    let oc = match out with None -> stdout | Some p -> open_out p in
    (* written as decoded, so a corrupt tail still leaves the good
       prefix behind (the channel is flushed on exit) *)
    Reader.with_file path (fun r ->
        Reader.fold r
          (fun () ts ev ->
             output_string oc (Event.to_json_line ~ts ev);
             output_char oc '\n')
          ());
    if out <> None then close_out oc else flush oc;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:
         "Write an event trace as canonical JSONL (for a binary trace, \
          byte-identical to a JSONL trace of the same run)")
    Term.(ret (const run
               $ file_pos 0 ~docv:"FILE"
                   ~doc:"Event trace, typically binary (--trace-fmt bin)."
               $ out_arg))

let () =
  let doc = "Summarize, diff and decode PPT structured event traces" in
  let info = Cmd.info "ppt_trace" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ summary_cmd; diff_cmd; decode_cmd ]))
