(* Physical units used throughout the simulator.

   Time is measured in integer nanoseconds, rates in bits per second.
   Integer time keeps the event order deterministic across platforms. *)

type time = int
(** Simulated time in nanoseconds. *)

let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let pp_time ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else if t >= 1_000 then Format.fprintf ppf "%.3fus" (to_us t)
  else Format.fprintf ppf "%dns" t

type rate = int
(** Link or sending rate in bits per second. *)

let gbps n = n * 1_000_000_000

(* Serialization time of [bytes] at [rate] bits/s, rounded up so that a
   busy link is never released early.  Valid for [bytes] < ~5*10^8,
   far above any packet or burst this simulator transmits at once. *)
let tx_time ~rate ~bytes =
  assert (rate > 0 && bytes >= 0);
  let bits = bytes * 8 in
  (bits * 1_000_000_000 + rate - 1) / rate

(* Bytes that [rate] delivers during [t] nanoseconds (rounded down). *)
let bytes_in ~rate ~time:t =
  assert (rate >= 0 && t >= 0);
  (* rate * t can overflow for long intervals at high rates, so go
     through the per-microsecond rate instead. *)
  let bits_per_us = rate / 1_000_000 in
  bits_per_us * t / 8 / 1_000

(* Bandwidth-delay product in bytes for a base round-trip time. *)
let bdp ~rate ~rtt = bytes_in ~rate ~time:rtt

let kb n = n * 1_000
let mb n = n * 1_000_000
