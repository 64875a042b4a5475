(* Deterministic pseudo-random number generator (splitmix64).

   Every simulation run takes an explicit seed so experiments are
   reproducible bit-for-bit; [split] derives independent streams for
   sub-components (arrivals, sizes, ECMP hashing, ...). *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  { state = next_int64 t }

(* Uniform float in [0, 1). Uses the top 53 bits. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

(* Uniform int in [0, bound). Keeping 62 bits guarantees the value
   fits OCaml's native positive int range. *)
let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Exponential variate with the given mean; used for Poisson
   inter-arrival times. *)
let exponential t ~mean =
  assert (mean > 0.);
  let u = float t in
  -. mean *. log (1. -. u)
