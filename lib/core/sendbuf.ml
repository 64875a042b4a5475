(* TCP send-buffer and system-call model (§4.1).

   PPT identifies large flows by watching how much data the
   application's *first* system call copies into the send buffer. The
   paper measures that this identifies 86.7% of >1KB Memcached flows
   and 84.3% of >10KB web flows: most applications hand the transport a
   whole message in one write, but a minority stream it in small
   chunks (and a first chunk below the threshold defeats the check).

   Since the original traces are not available, the application
   behaviour is modelled directly: with probability [single_write_prob]
   the first syscall carries the whole message (clipped to the buffer
   capacity); otherwise the application streams in [chunk_bytes]
   writes. The default probability reproduces the paper's measured
   identification accuracy. *)

open Ppt_engine

type model = {
  capacity : int;             (* send-buffer capacity in bytes *)
  single_write_prob : float;  (* P(first syscall carries the message) *)
  chunk_bytes : int;          (* write size of streaming applications *)
}

let default =
  { capacity = Units.mb 2000;       (* §6.2 uses a 2GB send buffer *)
    single_write_prob = 0.867;
    chunk_bytes = 512 }

let make ?(capacity = default.capacity)
    ?(single_write_prob = default.single_write_prob)
    ?(chunk_bytes = default.chunk_bytes) () =
  if single_write_prob < 0. || single_write_prob > 1. then
    invalid_arg "Sendbuf.make: probability out of range";
  if capacity <= 0 || chunk_bytes <= 0 then
    invalid_arg "Sendbuf.make: sizes must be positive";
  { capacity; single_write_prob; chunk_bytes }

(* Bytes injected into the send buffer by the first system call. *)
let first_syscall_size t rng ~flow_size =
  assert (flow_size > 0);
  let whole = Rng.float rng < t.single_write_prob in
  let write = if whole then flow_size else Int.min flow_size t.chunk_bytes in
  Int.min write t.capacity
