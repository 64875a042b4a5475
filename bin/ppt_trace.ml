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

let corrupt path pos msg =
  Printf.eprintf "%s:%d: %s\n" path pos msg;
  exit 2

(* Binary traces are decoded from a sliding window of the file. The
   window is refilled before fewer than [max_event] bytes remain, so
   an event never straddles its end and a decode failure is real
   corruption, not a chunk boundary. *)
let max_event = 256

let fold_binary path ic f init =
  let buf = ref "" and pos = ref 0 and eof = ref false and acc = ref init in
  let chunk = Bytes.create 65536 in
  let base = ref (String.length Event.bin_magic) in  (* file offset of buf *)
  let rec go () =
    if (not !eof) && String.length !buf - !pos < max_event then begin
      let n = input ic chunk 0 (Bytes.length chunk) in
      if n = 0 then eof := true;
      base := !base + !pos;
      buf :=
        String.sub !buf !pos (String.length !buf - !pos)
        ^ Bytes.sub_string chunk 0 n;
      pos := 0;
      go ()
    end else begin
      let start = !pos in
      match Event.of_binary !buf pos with
      | None -> !acc
      | Some (ts, ev) -> acc := f !acc ts ev; go ()
      | exception Failure msg -> corrupt path (!base + start) msg
    end
  in
  go ()

let fold_jsonl path ic f init =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line ->
      (match Event.of_json_line line with
       | Some (ts, ev) -> go (lineno + 1) (f acc ts ev)
       | None -> corrupt path lineno ("unparseable event: " ^ line))
  in
  go 1 init

(* Stream every event of a trace, in order, through [f]. *)
let fold_events path f init =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let m = String.length Event.bin_magic in
      let head = try really_input_string ic m with End_of_file -> "" in
      if head = Event.bin_magic then fold_binary path ic f init
      else begin
        seek_in ic 0;
        fold_jsonl path ic f init
      end)

let file_pos n ~docv ~doc =
  Arg.(required & pos n (some file) None & info [] ~docv ~doc)

(* ---- summary ---- *)

let summary_cmd =
  let run path =
    Format.printf "%a@." Summary.pp
      (fold_events path Summary.add (Summary.create ()));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"Summarize one event trace")
    Term.(ret (const run
               $ file_pos 0 ~docv:"FILE" ~doc:"Event trace to summarize."))

(* ---- diff ---- *)

let read_events path =
  Array.of_list
    (List.rev (fold_events path (fun acc ts ev -> (ts, ev) :: acc) []))

let count_deltas a b =
  let tags tr =
    Summary.by_tag
      (Array.fold_left
         (fun s (ts, ev) -> Summary.add s ts ev)
         (Summary.create ()) tr)
  in
  let ta = tags a and tb = tags b in
  let get t tag = Option.value ~default:0 (List.assoc_opt tag t) in
  List.filter_map
    (fun tag ->
       let na = get ta tag and nb = get tb tag in
       if na = nb then None else Some (tag, na, nb))
    (List.sort_uniq compare (List.map fst ta @ List.map fst tb))

let diff_cmd =
  let run pa pb =
    let ea = read_events pa and eb = read_events pb in
    let na = Array.length ea and nb = Array.length eb in
    let rec first_diff i =
      if i = na && i = nb then None
      else if i < na && i < nb && ea.(i) = eb.(i) then first_diff (i + 1)
      else Some i
    in
    match first_diff 0 with
    | None ->
      Format.printf "traces identical (%d events)@." na;
      `Ok ()
    | Some i ->
      let show evs =
        if i < Array.length evs then
          let ts, ev = evs.(i) in
          Event.to_json_line ~ts ev
        else "<end of trace>"
      in
      Format.printf "traces differ at event %d:@." (i + 1);
      Format.printf "  %s: %s@." pa (show ea);
      Format.printf "  %s: %s@." pb (show eb);
      let deltas = count_deltas ea eb in
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
    let oc = match out with None -> stdout | Some p -> open_out p in
    (* written as decoded, so a corrupt tail still leaves the good
       prefix behind (the channel is flushed on exit) *)
    fold_events path
      (fun () ts ev ->
         output_string oc (Event.to_json_line ~ts ev);
         output_char oc '\n')
      ();
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
