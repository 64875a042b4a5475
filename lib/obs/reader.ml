(* A pull reader over one trace file.

   Binary traces are decoded from a sliding window of the file. The
   window is refilled before fewer than [max_event] bytes remain, so an
   event never straddles its end and a decode failure is real
   corruption, not a chunk boundary. JSONL traces are read a line at a
   time. Either way the reader holds one window or one line, whatever
   the length of the trace. *)

exception Corrupt of string * int * string

let max_event = 256

type t = {
  path : string;
  ic : in_channel;
  binary : bool;
  mutable buf : string;    (* binary: the window *)
  pos : int ref;           (* binary: next event's offset in [buf] *)
  mutable base : int;      (* binary: file offset of [buf] *)
  mutable eof : bool;      (* binary: the file is read to its end *)
  chunk : Bytes.t;
  mutable line : int;      (* JSONL: lines read *)
}

let rec next_binary r =
  if (not r.eof) && String.length r.buf - !(r.pos) < max_event then begin
    let n = input r.ic r.chunk 0 (Bytes.length r.chunk) in
    if n = 0 then r.eof <- true;
    r.base <- r.base + !(r.pos);
    r.buf <-
      String.sub r.buf !(r.pos) (String.length r.buf - !(r.pos))
      ^ Bytes.sub_string r.chunk 0 n;
    r.pos := 0;
    next_binary r
  end else begin
    let start = !(r.pos) in
    try Event.of_binary r.buf r.pos
    with Failure msg -> raise (Corrupt (r.path, r.base + start, msg))
  end

let next_jsonl r =
  match input_line r.ic with
  | exception End_of_file -> None
  | line ->
    r.line <- r.line + 1;
    (match Event.of_json_line line with
     | Some _ as e -> e
     | None -> raise (Corrupt (r.path, r.line, "unparseable event: " ^ line)))

let next r = if r.binary then next_binary r else next_jsonl r

let rec fold r f acc =
  match next r with
  | None -> acc
  | Some (ts, ev) -> fold r f (f acc ts ev)

let with_file path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let m = String.length Event.bin_magic in
      let head = try really_input_string ic m with End_of_file -> "" in
      let binary = head = Event.bin_magic in
      if not binary then seek_in ic 0;
      f { path; ic; binary; buf = ""; pos = ref 0; base = m; eof = false;
          chunk = Bytes.create (if binary then 65536 else 0); line = 0 })
