(* Declarative fault specifications.

   A spec is a list of windowed clauses, each applying one fault kind
   to a set of ports for [from_t, until_t). Windows make down/up
   pairing automatic: every fault a spec injects is also reverted, so
   a well-formed spec can never leave the fabric wedged by
   construction — liveness violations found under a spec are transport
   bugs, not spec bugs.

   The concrete grammar (also documented in HACKING.md):

     SPEC   := CLAUSE (';' CLAUSE)*
     CLAUSE := KIND '@' TIME '-' TIME ':' SEL
     KIND   := 'down' | 'pause'
             | 'loss=' FLOAT | 'ber=' FLOAT
             | 'rate=' FLOAT | 'delay+=' TIME
     TIME   := NUMBER ('ns' | 'us' | 'ms' | 's')
     SEL    := 'host:' N | 'tohost:' N | 'link:' N
             | 'node:' N ':' P | 'core' | 'edge' | 'all'

   e.g. "down@2ms-6ms:link:3; ber=1e-5@0ms-50ms:core". 'pause' is an
   alias for 'down' that reads better on host selectors (a paused host
   stops draining its NIC). TIME literals must not use exponent
   notation ('-' separates the window bounds). *)

open Ppt_engine

type selector =
  | Host of int
  | To_host of int
  | Link of int
  | Port of { node : int; port : int }
  | Core
  | Edge
  | All

type kind =
  | Down
  | Loss of float
  | Ber of float
  | Rate of float
  | Extra_delay of Units.time

type clause = {
  kind : kind;
  from_t : Units.time;
  until_t : Units.time;
  sel : selector;
}

type t = clause list

(* --- printing ------------------------------------------------------ *)

let time_to_string (t : Units.time) =
  if t > 0 && t mod 1_000_000_000 = 0 then
    string_of_int (t / 1_000_000_000) ^ "s"
  else if t > 0 && t mod 1_000_000 = 0 then
    string_of_int (t / 1_000_000) ^ "ms"
  else if t > 0 && t mod 1_000 = 0 then
    string_of_int (t / 1_000) ^ "us"
  else string_of_int t ^ "ns"

let selector_to_string = function
  | Host h -> Printf.sprintf "host:%d" h
  | To_host h -> Printf.sprintf "tohost:%d" h
  | Link h -> Printf.sprintf "link:%d" h
  | Port { node; port } -> Printf.sprintf "node:%d:%d" node port
  | Core -> "core"
  | Edge -> "edge"
  | All -> "all"

(* Shortest rendering that parses back to exactly the same float, so
   [of_string (to_string s)] round-trips bit-for-bit. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let kind_to_string = function
  | Down -> "down"
  | Loss p -> Printf.sprintf "loss=%s" (float_to_string p)
  | Ber b -> Printf.sprintf "ber=%s" (float_to_string b)
  | Rate f -> Printf.sprintf "rate=%s" (float_to_string f)
  | Extra_delay d -> Printf.sprintf "delay+=%s" (time_to_string d)

let clause_to_string c =
  Printf.sprintf "%s@%s-%s:%s" (kind_to_string c.kind)
    (time_to_string c.from_t) (time_to_string c.until_t)
    (selector_to_string c.sel)

let to_string spec = String.concat "; " (List.map clause_to_string spec)

(* --- validation ---------------------------------------------------- *)

(* The ranges are written so that NaN, which fails every comparison,
   falls outside them. *)
let validate_clause c =
  if c.from_t < 0 then Error "fault window starts before t=0"
  else if c.until_t <= c.from_t then
    Error
      (Printf.sprintf "empty fault window %s-%s"
         (time_to_string c.from_t) (time_to_string c.until_t))
  else
    match c.kind with
    | Down -> Ok c
    | Loss p when not (p >= 0. && p <= 1.) ->
      Error (Printf.sprintf "loss probability %g outside [0,1]" p)
    | Ber b when not (b >= 0. && b <= 1e-2) ->
      Error (Printf.sprintf "ber %g outside [0,1e-2]" b)
    | Rate f when not (f > 0. && f <= 1.) ->
      Error (Printf.sprintf "rate factor %g outside (0,1]" f)
    | Extra_delay d when d < 0 -> Error "negative delay"
    | _ -> Ok c

let validate spec =
  let rec go = function
    | [] -> Ok spec
    | c :: rest ->
      (match validate_clause c with
       | Ok _ -> go rest
       | Error e -> Error e)
  in
  go spec

(* --- parsing ------------------------------------------------------- *)

let is_letter ch = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')

let parse_time s =
  let s = String.trim s in
  let n = String.length s in
  let rec unit_start i =
    if i > 0 && is_letter s.[i - 1] then unit_start (i - 1) else i
  in
  let u = unit_start n in
  if u = 0 || u = n then Error (Printf.sprintf "bad time %S" s)
  else
    let mult =
      match String.sub s u (n - u) with
      | "ns" -> Some 1.
      | "us" -> Some 1e3
      | "ms" -> Some 1e6
      | "s" -> Some 1e9
      | _ -> None
    in
    (* [int_of_float] is unspecified past [max_int]: such a time would
       wrap around to an arbitrary (even negative) nanosecond count *)
    let ns =
      match (mult, float_of_string_opt (String.sub s 0 u)) with
      | Some m, Some v -> Float.round (v *. m)
      | _ -> Float.nan
    in
    if ns >= 0. && ns < Float.of_int max_int then Ok (int_of_float ns)
    else Error (Printf.sprintf "bad time %S" s)

let parse_float name s =
  match float_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" name s)

let parse_int name s =
  match int_of_string_opt (String.trim s) with
  | Some v when v >= 0 -> Ok v
  | _ -> Error (Printf.sprintf "bad %s %S" name s)

let parse_kind s =
  let s = String.trim s in
  let after prefix =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  match s with
  | "down" | "pause" -> Ok Down
  | _ ->
    (match after "loss=" with
     | Some v -> Result.map (fun p -> Loss p) (parse_float "loss" v)
     | None ->
       (match after "ber=" with
        | Some v -> Result.map (fun b -> Ber b) (parse_float "ber" v)
        | None ->
          (match after "rate=" with
           | Some v ->
             Result.map (fun f -> Rate f) (parse_float "rate" v)
           | None ->
             (match after "delay+=" with
              | Some v ->
                Result.map (fun d -> Extra_delay d) (parse_time v)
              | None ->
                Error (Printf.sprintf "unknown fault kind %S" s)))))

let parse_selector s =
  let s = String.trim s in
  match String.split_on_char ':' s with
  | [ "core" ] -> Ok Core
  | [ "edge" ] -> Ok Edge
  | [ "all" ] -> Ok All
  | [ "host"; n ] -> Result.map (fun h -> Host h) (parse_int "host" n)
  | [ "tohost"; n ] ->
    Result.map (fun h -> To_host h) (parse_int "host" n)
  | [ "link"; n ] -> Result.map (fun h -> Link h) (parse_int "host" n)
  | [ "node"; n; p ] ->
    Result.bind (parse_int "node" n) (fun node ->
        Result.map (fun port -> Port { node; port })
          (parse_int "port" p))
  | _ -> Error (Printf.sprintf "unknown selector %S" s)

let parse_clause s =
  let ( let* ) = Result.bind in
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "clause %S has no '@WINDOW'" s)
  | Some at ->
    let kind_s = String.sub s 0 at in
    let rest = String.sub s (at + 1) (String.length s - at - 1) in
    (match String.index_opt rest ':' with
     | None -> Error (Printf.sprintf "clause %S has no ':SELECTOR'" s)
     | Some colon ->
       let window = String.sub rest 0 colon in
       let sel_s =
         String.sub rest (colon + 1) (String.length rest - colon - 1)
       in
       let* from_s, until_s =
         match String.index_opt window '-' with
         | Some dash ->
           Ok
             ( String.sub window 0 dash,
               String.sub window (dash + 1)
                 (String.length window - dash - 1) )
         | None ->
           Error (Printf.sprintf "window %S is not FROM-UNTIL" window)
       in
       let* kind = parse_kind kind_s in
       let* from_t = parse_time from_s in
       let* until_t = parse_time until_s in
       let* sel = parse_selector sel_s in
       validate_clause { kind; from_t; until_t; sel })

let of_string s =
  let pieces =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      (match parse_clause p with
       | Ok c -> go (c :: acc) rest
       | Error e -> Error e)
  in
  go [] pieces

(* --- canonical chaos scenarios ------------------------------------- *)

(* The issue's scenario set, parameterized by experiment geometry:
   [receiver] is the host whose link flaps / that pauses, [spike] the
   added one-way delay of the latency scenario (~9x the base hop delay
   reads as a 10x spike), [core] targets spine links when the topology
   has any (leaf-spine) and the receiver's edge link otherwise. *)
let scenarios ~receiver ~spike ~core =
  let tgt =
    if core then "core" else Printf.sprintf "link:%d" receiver
  in
  [ ("flap", Printf.sprintf "down@2ms-5ms:%s" tgt);
    ("ber", Printf.sprintf "ber=1e-5@0ms-1000ms:%s" tgt);
    ( "delay-spike",
      Printf.sprintf "delay+=%s@2ms-5ms:%s" (time_to_string spike) tgt
    );
    ("pause-rx", Printf.sprintf "pause@2ms-5ms:host:%d" receiver) ]
