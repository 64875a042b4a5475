(* A growable int sequence kept in fixed-size chunks, so recording a
   run of millions of queue operations never copies what it already
   holds. *)

let chunk_bits = 20
let chunk_size = 1 lsl chunk_bits

type t = { mutable chunks : int array array; mutable len : int }

let create () = { chunks = [||]; len = 0 }
let length t = t.len

let push t v =
  let c = t.len lsr chunk_bits in
  if c = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| Array.make chunk_size 0 |];
  t.chunks.(c).(t.len land (chunk_size - 1)) <- v;
  t.len <- t.len + 1

let get t i = t.chunks.(i lsr chunk_bits).(i land (chunk_size - 1))

let set t i v = t.chunks.(i lsr chunk_bits).(i land (chunk_size - 1)) <- v
