(* PIAS: Information-Agnostic Flow Scheduling [9].

   DCTCP rate control plus multi-level-feedback priority demotion:
   every flow starts at the highest priority and is demoted one level
   each time its bytes-sent crosses a threshold. No low-priority loop,
   no a-priori identification — the baseline PPT's §4 improves on. *)

open Ppt_netsim

(* Ascending bytes-sent boundaries between the 8 priorities, in the
   spirit of the PIAS paper's web-search tuning: geometric steps
   through the small-flow range. *)
let demotion =
  [| 10_000; 30_000; 100_000; 300_000; 1_000_000; 3_000_000; 10_000_000 |]

(* Thresholds crossed from the [i]th on. Top level rather than local
   to its callers: a local recursive function would be a closure
   allocated for every packet tagged. The types are written out: left
   polymorphic, [>=] would be a call to the generic compare for every
   packet tagged. *)
let rec crossed_from (thresholds : int array) (bytes_sent : int) i =
  if i >= Array.length thresholds then i
  else if bytes_sent >= thresholds.(i) then
    crossed_from thresholds bytes_sent (i + 1)
  else i

let crossed thresholds ~bytes_sent = crossed_from thresholds bytes_sent 0

let prio_of ~bytes_sent =
  Int.min (Prio_queue.n_prios - 1) (crossed demotion ~bytes_sent)

let make () =
  let tagger ~large:_ ~bytes_sent ~loop:_ = prio_of ~bytes_sent in
  Endpoint.window ~params:(Reliable.default_params ~tagger ()) Dctcp.policy
    ()
