(* Mirror-symmetric packet tagging (§4.2).

   The 8 in-network priorities split into a high band P0-P3 for HCP
   traffic and a low band P4-P7 for LCP traffic. Within each band:
   - flows identified as large start at the band's lowest priority
     (P3 / P7) for their whole lifetime;
   - unidentified flows start at the band's highest priority (P0 / P4)
     and are demoted one level per crossed bytes-sent threshold (the
     PIAS-style ageing fallback), HCP and LCP moving in lockstep. *)

open Ppt_netsim

type t = {
  identified_large : bool;
  demotion : int array;   (* 3 ascending bytes-sent thresholds *)
}

let default_demotion = [| 100_000; 1_000_000; 10_000_000 |]

let make ?(demotion = default_demotion) ~identified_large () =
  if Array.length demotion <> 3 then
    invalid_arg "Tagging.make: need exactly 3 demotion thresholds";
  Array.iteri (fun i th ->
      if th <= 0 || (i > 0 && th <= demotion.(i - 1)) then
        invalid_arg "Tagging.make: thresholds must ascend")
    demotion;
  { identified_large; demotion }

(* Thresholds crossed from the [i]th on. Top level rather than local
   to [level]: a local recursive function would be a closure allocated
   for every packet tagged. *)
let rec crossed demotion bytes_sent i =
  if i >= Array.length demotion then i
  else if bytes_sent >= demotion.(i) then crossed demotion bytes_sent (i + 1)
  else i

(* Priority level within a band (0..3). *)
let level t ~bytes_sent =
  if t.identified_large then 3
  else Int.min 3 (crossed t.demotion bytes_sent 0)

let prio t ~loop ~bytes_sent =
  let l = level t ~bytes_sent in
  match loop with
  | Packet.H -> l
  | Packet.L -> Prio_queue.lp_band_start + l

(* The Fig. 17 ablation: no flow scheduling at all — every flow's HCP
   shares one priority and every LCP another. *)
let unscheduled ~loop ~bytes_sent:_ =
  match loop with
  | Packet.H -> 0
  | Packet.L -> Prio_queue.lp_band_start
