(* A run's result and its JSON form: the line the benchmark prints last
   on standard output. *)

type value = Int of int | Float of float

type t = {
  correct : bool;
  attempted : int;      (* flows requested *)
  failed : int;         (* flows not completed, or in a failed check *)
  metrics : (string * value * string) list;   (* name, value, unit *)
  failures : string list;
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of a measured value; a value that is not a number (an
   empty ratio) is written as 0. *)
let json_value = function
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let to_json t =
  let metrics =
    List.map
      (fun (name, v, unit) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
           (json_value v) (json_string unit))
      t.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct t.attempted t.failed (String.concat ", " metrics)

let env_json pairs =
  "{\"env\": {"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) pairs)
  ^ "}}"
