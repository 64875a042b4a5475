(* Structured trace events and their two encodings, both derived from
   one schema table.

   JSONL is one flat JSON object per line with a fixed key order and
   integer values only (utilization is parts-per-million), so equal
   events serialize to equal bytes and golden tests and `ppt_trace
   diff` compare traces textually. The parser only reads back what
   [to_json_line] writes. The binary encoding is the compact hot-path
   counterpart: a tag byte, then the timestamp and every field in the
   same order as zigzag varints, chars and bools as single bytes, after
   a "PPTB\001" stream header. Decoding it reproduces the JSONL
   byte-for-byte (`ppt_trace decode`). *)

type t =
  | Enqueue of { node : int; port : int; prio : int; flow : int;
                 seq : int; kind : char; size : int; occ : int }
  | Dequeue of { node : int; port : int; prio : int; flow : int;
                 seq : int; kind : char; size : int; occ : int }
  | Ecn_mark of { node : int; port : int; prio : int; flow : int;
                  seq : int; occ : int; threshold : int }
  | Drop of { node : int; port : int; prio : int; flow : int;
              seq : int; kind : char; size : int; occ : int }
  | Trim of { node : int; port : int; prio : int; flow : int;
              seq : int; cut : int; occ : int }
  | Cwnd_update of { flow : int; cwnd : int }
  | Loop_switch of { flow : int; active : bool; window : int }
  | Rto_fire of { flow : int; backoff : int }
  | Retransmit of { flow : int; seq : int; loop : char }
  | Flow_start of { flow : int; size : int }
  | Flow_done of { flow : int; size : int; fct : int }
  | Probe_queue of { node : int; port : int; occ : int; lp_occ : int }
  | Probe_link of { node : int; port : int; tx_bytes : int; util_ppm : int }
  | Probe_dt of { node : int; port : int; hp : int; lp : int }
  | Link_down of { node : int; port : int }
  | Link_up of { node : int; port : int }
  | Link_degrade of { node : int; port : int; rate_ppm : int;
                      extra_delay : int }
  | Fault_drop of { node : int; port : int; flow : int; seq : int;
                    kind : char; size : int; reason : char }

(* --- schema ---------------------------------------------------------

   Row [i] is the kind whose binary tag is [i]: its JSONL name and its
   fields in wire order. Every codec walks a row; the only per-kind
   code is [load] (event -> row index and field values) and [build]
   (back). Adding a kind takes a constructor, a row and one arm in
   each of the two. *)

type ty = Int | Char | Bool

type row = {
  name : string;
  head : string;        (* ,"ev":"<name>" *)
  keys : string array;  (* JSON key with its separators: ,"node": *)
  tys : ty array;
  one_byte : int;       (* bit j: field j is one byte on the wire *)
}

let row name fields =
  let fields = Array.of_list fields in
  { name;
    head = ",\"ev\":\"" ^ name ^ "\"";
    keys = Array.map (fun (k, _) -> ",\"" ^ k ^ "\":") fields;
    tys = Array.map snd fields;
    one_byte =
      Array.fold_right
        (fun (_, ty) m -> (m lsl 1) lor (if ty = Int then 0 else 1))
        fields 0 }

let at_port = [ ("node", Int); ("port", Int) ]
let at_queue = at_port @ [ ("prio", Int); ("flow", Int); ("seq", Int) ]
let packet = at_queue @ [ ("kind", Char); ("size", Int); ("occ", Int) ]

let schema =
  [| row "enqueue" packet;
     row "dequeue" packet;
     row "ecn_mark" (at_queue @ [ ("occ", Int); ("threshold", Int) ]);
     row "drop" packet;
     row "trim" (at_queue @ [ ("cut", Int); ("occ", Int) ]);
     row "cwnd_update" [ ("flow", Int); ("cwnd", Int) ];
     row "loop_switch" [ ("flow", Int); ("active", Bool); ("window", Int) ];
     row "rto_fire" [ ("flow", Int); ("backoff", Int) ];
     row "retransmit" [ ("flow", Int); ("seq", Int); ("loop", Char) ];
     row "flow_start" [ ("flow", Int); ("size", Int) ];
     row "flow_done" [ ("flow", Int); ("size", Int); ("fct", Int) ];
     row "probe_queue" (at_port @ [ ("occ", Int); ("lp_occ", Int) ]);
     row "probe_link" (at_port @ [ ("tx_bytes", Int); ("util_ppm", Int) ]);
     row "probe_dt" (at_port @ [ ("hp", Int); ("lp", Int) ]);
     row "link_down" at_port;
     row "link_up" at_port;
     row "link_degrade"
       (at_port @ [ ("rate_ppm", Int); ("extra_delay", Int) ]);
     row "fault_drop"
       (at_port
        @ [ ("flow", Int); ("seq", Int); ("kind", Char); ("size", Int);
            ("reason", Char) ]) |]

(* Field values of the event being coded: ints as they are, chars as
   their code, bools as 0/1. No row has more than 8 fields, which makes
   the unsafe accesses safe. Like the binary scratch buffer below it is
   module-global, so the codecs are not re-entrant. The setters are
   inlined so that [load] makes no calls. *)
let vals = Array.make 8 0
let set j x = Array.unsafe_set vals j x
let get j = Array.unsafe_get vals j
let get_char j = Char.unsafe_chr (get j)
let[@inline] f2 a b = set 0 a; set 1 b
let[@inline] f3 a b c = f2 a b; set 2 c
let[@inline] f4 a b c d = f3 a b c; set 3 d
let[@inline] f7 a b c d e f g = f4 a b c d; set 4 e; set 5 f; set 6 g
let[@inline] f8 a b c d e f g h = f7 a b c d e f g; set 7 h

(* Event -> row index, with the fields written to [vals] in row order. *)
let load ev =
  let c = Char.code in
  match ev with
  | Enqueue { node; port; prio; flow; seq; kind; size; occ } ->
    f8 node port prio flow seq (c kind) size occ; 0
  | Dequeue { node; port; prio; flow; seq; kind; size; occ } ->
    f8 node port prio flow seq (c kind) size occ; 1
  | Ecn_mark { node; port; prio; flow; seq; occ; threshold } ->
    f7 node port prio flow seq occ threshold; 2
  | Drop { node; port; prio; flow; seq; kind; size; occ } ->
    f8 node port prio flow seq (c kind) size occ; 3
  | Trim { node; port; prio; flow; seq; cut; occ } ->
    f7 node port prio flow seq cut occ; 4
  | Cwnd_update { flow; cwnd } -> f2 flow cwnd; 5
  | Loop_switch { flow; active; window } ->
    f3 flow (Bool.to_int active) window; 6
  | Rto_fire { flow; backoff } -> f2 flow backoff; 7
  | Retransmit { flow; seq; loop } -> f3 flow seq (c loop); 8
  | Flow_start { flow; size } -> f2 flow size; 9
  | Flow_done { flow; size; fct } -> f3 flow size fct; 10
  | Probe_queue { node; port; occ; lp_occ } -> f4 node port occ lp_occ; 11
  | Probe_link { node; port; tx_bytes; util_ppm } ->
    f4 node port tx_bytes util_ppm; 12
  | Probe_dt { node; port; hp; lp } -> f4 node port hp lp; 13
  | Link_down { node; port } -> f2 node port; 14
  | Link_up { node; port } -> f2 node port; 15
  | Link_degrade { node; port; rate_ppm; extra_delay } ->
    f4 node port rate_ppm extra_delay; 16
  | Fault_drop { node; port; flow; seq; kind; size; reason } ->
    f7 node port flow seq (c kind) size (c reason); 17

(* Row index and the values in [vals] -> event; the inverse of [load]. *)
let build tag =
  let a = get 0 and b = get 1 in
  match tag with
  | 0 -> Enqueue { node = a; port = b; prio = get 2; flow = get 3;
                   seq = get 4; kind = get_char 5; size = get 6; occ = get 7 }
  | 1 -> Dequeue { node = a; port = b; prio = get 2; flow = get 3;
                   seq = get 4; kind = get_char 5; size = get 6; occ = get 7 }
  | 2 -> Ecn_mark { node = a; port = b; prio = get 2; flow = get 3;
                    seq = get 4; occ = get 5; threshold = get 6 }
  | 3 -> Drop { node = a; port = b; prio = get 2; flow = get 3; seq = get 4;
                kind = get_char 5; size = get 6; occ = get 7 }
  | 4 -> Trim { node = a; port = b; prio = get 2; flow = get 3; seq = get 4;
                cut = get 5; occ = get 6 }
  | 5 -> Cwnd_update { flow = a; cwnd = b }
  | 6 -> Loop_switch { flow = a; active = b <> 0; window = get 2 }
  | 7 -> Rto_fire { flow = a; backoff = b }
  | 8 -> Retransmit { flow = a; seq = b; loop = get_char 2 }
  | 9 -> Flow_start { flow = a; size = b }
  | 10 -> Flow_done { flow = a; size = b; fct = get 2 }
  | 11 -> Probe_queue { node = a; port = b; occ = get 2; lp_occ = get 3 }
  | 12 -> Probe_link { node = a; port = b; tx_bytes = get 2; util_ppm = get 3 }
  | 13 -> Probe_dt { node = a; port = b; hp = get 2; lp = get 3 }
  | 14 -> Link_down { node = a; port = b }
  | 15 -> Link_up { node = a; port = b }
  | 16 -> Link_degrade { node = a; port = b; rate_ppm = get 2;
                         extra_delay = get 3 }
  | _ -> Fault_drop { node = a; port = b; flow = get 2; seq = get 3;
                      kind = get_char 4; size = get 5; reason = get_char 6 }

let tag ev = schema.(load ev).name

(* --- JSONL ----------------------------------------------------------- *)

let to_json_line ~ts ev =
  let r = schema.(load ev) in
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b (string_of_int ts);
  Buffer.add_string b r.head;
  for j = 0 to Array.length r.tys - 1 do
    Buffer.add_string b r.keys.(j);
    match r.tys.(j) with
    | Int -> Buffer.add_string b (string_of_int (get j))
    | Char ->
      Buffer.add_char b '"';
      Buffer.add_char b (get_char j);
      Buffer.add_char b '"'
    | Bool -> Buffer.add_string b (if get j <> 0 then "true" else "false")
  done;
  Buffer.add_char b '}';
  Buffer.contents b

(* The parser is one strict left-to-right pass over the canonical
   form: every literal piece must sit exactly where [to_json_line] puts
   it, so no key is searched for. The binary decoder shares its byte
   reader and its exception. *)
exception Malformed

let[@inline] read_byte s pos =
  if !pos >= String.length s then raise Malformed;
  let c = Char.code s.[!pos] in
  incr pos;
  c

let at line p s =
  let n = String.length s and k = ref 0 in
  if !p + n > String.length line then false
  else begin
    while !k < n && line.[!p + !k] = s.[!k] do incr k done;
    !k = n
  end

let expect line p s =
  if at line p s then p := !p + String.length s else raise Malformed

(* -?[0-9]+, accumulated negatively so [min_int] parses; overflow is
   malformed. *)
let read_int line p =
  let len = String.length line in
  let neg = !p < len && line.[!p] = '-' in
  if neg then incr p;
  let start = !p and acc = ref 0 in
  while !p < len && line.[!p] >= '0' && line.[!p] <= '9' do
    let d = Char.code line.[!p] - 48 in
    if !acc < (min_int + d) / 10 then raise Malformed;
    acc := (!acc * 10) - d;
    incr p
  done;
  if !p = start || ((not neg) && !acc = min_int) then raise Malformed;
  if neg then !acc else - !acc

let read_field line p = function
  | Int -> read_int line p
  | Char ->
    expect line p "\"";
    let c = read_byte line p in
    expect line p "\"";
    c
  | Bool ->
    if at line p "true" then (p := !p + 4; 1)
    else (expect line p "false"; 0)

let of_json_line line =
  let p = ref 0 in
  try
    expect line p "{\"t\":";
    let ts = read_int line p in
    let rec find tag =
      if tag = Array.length schema then raise Malformed
      else if at line p schema.(tag).head then tag else find (tag + 1)
    in
    let tag = find 0 in
    let r = schema.(tag) in
    expect line p r.head;
    for j = 0 to Array.length r.tys - 1 do
      expect line p r.keys.(j);
      set j (read_field line p r.tys.(j))
    done;
    expect line p "}";
    if !p <> String.length line then raise Malformed;
    Some (ts, build tag)
  with Malformed -> None

(* --- binary ---------------------------------------------------------- *)

let bin_magic = "PPTB\001"

(* Encoding writes a module-global scratch buffer with unsafe stores
   (an event is at most 1 tag + 9 varints of <= 10 bytes, far under its
   size) and hands it to the caller's [Buffer] in one [add_subbytes]. *)
let scratch = Bytes.create 256

(* Zigzag maps the (63-bit) int onto an unsigned code so small
   magnitudes of either sign stay short; the code is then emitted in
   7-bit groups, low first, high bit = continuation. [lsr] treats the
   code as unsigned throughout, so the full int range round-trips.
   Writes at [pos] and returns the position after the varint. *)
let put_varint pos n =
  let z = ref ((n lsl 1) lxor (n asr 62)) and pos = ref pos in
  while !z land lnot 0x7f <> 0 do
    Bytes.unsafe_set scratch !pos (Char.unsafe_chr ((!z land 0x7f) lor 0x80));
    z := !z lsr 7;
    incr pos
  done;
  Bytes.unsafe_set scratch !pos (Char.unsafe_chr !z);
  !pos + 1

let add_binary b ~ts ev =
  let tag = load ev in
  let r = schema.(tag) in
  Bytes.unsafe_set scratch 0 (Char.unsafe_chr tag);
  let pos = ref (put_varint 1 ts) in
  for j = 0 to Array.length r.tys - 1 do
    if r.one_byte land (1 lsl j) = 0 then pos := put_varint !pos (get j)
    else (Bytes.unsafe_set scratch !pos (get_char j); incr pos)
  done;
  Buffer.add_subbytes b scratch 0 !pos

let read_varint s pos =
  let z = ref 0 and shift = ref 0 and p = ref !pos in
  while
    if !p >= String.length s || !shift >= 63 then raise Malformed;
    let byte = Char.code (String.unsafe_get s !p) in
    incr p;
    z := !z lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    byte >= 0x80
  do () done;
  pos := !p;
  (!z lsr 1) lxor (- (!z land 1))

(* Decode the event starting at [!pos] (advancing it); [None] once the
   input is exhausted. @raise Failure on a corrupt or truncated
   stream. *)
let of_binary s pos =
  if !pos >= String.length s then None
  else
    try
      let tag = read_byte s pos in
      if tag >= Array.length schema then
        failwith (Printf.sprintf "Event.of_binary: bad tag %d" tag);
      let ts = read_varint s pos in
      let r = schema.(tag) in
      for j = 0 to Array.length r.tys - 1 do
        set j
          (if r.one_byte land (1 lsl j) <> 0 then read_byte s pos
           else read_varint s pos)
      done;
      Some (ts, build tag)
    with Malformed -> failwith "Event.of_binary: truncated stream"
