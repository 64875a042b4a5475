(* Time series sampled on the simulator clock.

   Used for the link-utilization plots (Fig. 1, Fig. 20) and the buffer
   occupancy measurements (Fig. 28): the figure's sampler evaluates a
   probe every interval, on its own ticks, and records the values with
   their timestamps. *)

open Ppt_engine

type sample = { at : Units.time; value : float }

type t = {
  mutable samples : sample list;    (* newest first *)
  mutable n : int;
}

let create () = { samples = []; n = 0 }

let record t ~at value =
  t.samples <- { at; value } :: t.samples;
  t.n <- t.n + 1

let samples t = List.rev t.samples

let values t = List.map (fun s -> s.value) (samples t)

let mean t =
  if t.n = 0 then nan
  else List.fold_left (fun acc s -> acc +. s.value) 0. t.samples
       /. float_of_int t.n

(* Utilization probe: converts a cumulative byte counter into per-
   interval utilization of a link of the given rate.  Returns a probe
   function for a sampler that calls it every [interval]. *)
let utilization_probe ~rate ~interval read_tx_bytes =
  let last = ref (read_tx_bytes ()) in
  fun () ->
    let now_bytes = read_tx_bytes () in
    let delta = now_bytes - !last in
    last := now_bytes;
    let capacity = Units.bytes_in ~rate ~time:interval in
    if capacity = 0 then 0.
    else float_of_int delta /. float_of_int capacity
