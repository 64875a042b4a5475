(* TCP send-buffer and system-call model, and the buffer-aware flow
   identification that reads it (§4.1).

   PPT identifies large flows by watching how much data the
   application's *first* system call copies into the send buffer: a
   flow is declared large when that write exceeds [threshold] bytes.
   The paper measures that this identifies 86.7% of >1KB Memcached
   flows and 84.3% of >10KB web flows: most applications hand the
   transport a whole message in one write, but a minority stream it in
   small chunks (and a first chunk below the threshold defeats the
   check). Flows that escape it fall back to PIAS-style ageing in
   {!Tagging}.

   Since the original traces are not available, the application
   behaviour is modelled directly: with probability [single_write_prob]
   the first syscall carries the whole message (clipped to the buffer
   capacity); otherwise the application streams in [chunk_bytes]
   writes. The probability reproduces the paper's measured
   identification accuracy. *)

open Ppt_engine

type model = { capacity : int }

let threshold = 100_000      (* Table 3 *)
let single_write_prob = 0.867
let chunk_bytes = 512

let default = { capacity = Units.mb 2000 }  (* §6.2 uses a 2GB buffer *)

let make ?(capacity = default.capacity) () =
  if capacity <= 0 then invalid_arg "Sendbuf.make: capacity must be positive";
  { capacity }

let identify t rng ~flow_size =
  assert (flow_size > 0);
  let whole = Rng.float rng < single_write_prob in
  let write = if whole then flow_size else Int.min flow_size chunk_bytes in
  Int.min write t.capacity > threshold
