(* Mirror-symmetric packet tagging (§4.2).

   The 8 in-network priorities split into a high band P0-P3 for HCP
   traffic and a low band P4-P7 for LCP traffic. Within each band:
   - flows identified as large start at the band's lowest priority
     (P3 / P7) for their whole lifetime;
   - unidentified flows start at the band's highest priority (P0 / P4)
     and are demoted one level per crossed bytes-sent threshold (the
     PIAS-style ageing fallback), HCP and LCP moving in lockstep. *)

open Ppt_netsim

(* The §4.2 bytes-sent thresholds between the 4 levels of a band. *)
let demotion = [| 100_000; 1_000_000; 10_000_000 |]

let prio ~identified_large ~loop ~bytes_sent =
  (* the priority level within a band, 0..3 *)
  let l =
    if identified_large then 3
    else Ppt_transport.Pias.crossed demotion ~bytes_sent
  in
  match loop with
  | Packet.H -> l
  | Packet.L -> Prio_queue.lp_band_start + l

(* The Fig. 17 ablation: no flow scheduling at all — every flow's HCP
   shares one priority and every LCP another. *)
let unscheduled ~loop ~bytes_sent:_ =
  match loop with
  | Packet.H -> 0
  | Packet.L -> Prio_queue.lp_band_start
