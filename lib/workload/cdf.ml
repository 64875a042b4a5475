(* Empirical flow-size distributions as piecewise-linear CDFs.

   Points are (size_bytes, cumulative_probability) with the probability
   strictly increasing to 1.0. Sampling inverts the CDF with linear
   interpolation inside each segment, i.e. sizes are uniform within a
   segment — the convention used by the ns-3 scripts of DCTCP/PIAS/Homa
   that the paper's workloads come from. *)

(* The points are kept as two unboxed arrays: sizes and their
   cumulative probabilities. *)
type t = {
  xs : float array;   (* bytes *)
  ps : float array;   (* cum_prob *)
  mean : float;
}

let validate points =
  if Array.length points < 2 then invalid_arg "Cdf: need >= 2 points";
  let x0, p0 = points.(0) in
  if p0 <> 0. then invalid_arg "Cdf: first probability must be 0";
  if x0 < 0. then invalid_arg "Cdf: sizes must be non-negative";
  let _, plast = points.(Array.length points - 1) in
  if abs_float (plast -. 1.) > 1e-9 then
    invalid_arg "Cdf: last probability must be 1";
  Array.iteri (fun i (x, p) ->
      if i > 0 then begin
        let x', p' = points.(i - 1) in
        if x < x' || p <= p' then
          invalid_arg "Cdf: points must increase"
      end)
    points

(* Mean under the uniform-within-segment convention. *)
let compute_mean points =
  let acc = ref 0. in
  for i = 1 to Array.length points - 1 do
    let x0, p0 = points.(i - 1) and x1, p1 = points.(i) in
    acc := !acc +. ((p1 -. p0) *. (x0 +. x1) /. 2.)
  done;
  !acc

let create pts =
  let points = Array.of_list pts in
  validate points;
  { xs = Array.map fst points; ps = Array.map snd points;
    mean = compute_mean points }

let mean t = t.mean

let fraction_below t x =
  let xs = t.xs and ps = t.ps in
  let n = Array.length xs in
  let xf = float_of_int x in
  if xf <= xs.(0) then 0.
  else if xf >= xs.(n - 1) then 1.
  else begin
    let rec find i = if xs.(i) >= xf then i else find (i + 1) in
    let i = find 1 in
    let x0 = xs.(i - 1) and p0 = ps.(i - 1) in
    p0 +. ((ps.(i) -. p0) *. (xf -. x0) /. (xs.(i) -. x0))
  end

(* Inverse-CDF sampling; returns at least 1 byte. Rounds to nearest —
   truncating here shaved half a byte off every draw, biasing the
   empirical mean below [mean t]. *)
let sample t rng =
  let u = Ppt_engine.Rng.float rng in
  let xs = t.xs and ps = t.ps in
  (* a loop, not a local recursive function: that would be a closure
     capturing [u], allocated on every draw *)
  let i = ref 1 in
  while ps.(!i) < u do incr i done;
  let i = !i in
  let x0 = xs.(i - 1) and p0 = ps.(i - 1) in
  let x = x0 +. ((xs.(i) -. x0) *. (u -. p0) /. (ps.(i) -. p0)) in
  Int.max 1 (int_of_float (Float.round x))

let max_size t = int_of_float t.xs.(Array.length t.xs - 1)
