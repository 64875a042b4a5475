(* Periodic time-series sampling driven by the simulator clock.

   Used for the link-utilization plots (Fig. 1, Fig. 20) and the buffer
   occupancy measurements (Fig. 28): a probe function is evaluated every
   [interval] and its values recorded with their timestamps. *)

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
let count t = t.n

let values t = List.map (fun s -> s.value) (samples t)

let mean t =
  if t.n = 0 then nan
  else List.fold_left (fun acc s -> acc +. s.value) 0. t.samples
       /. float_of_int t.n

(* Install a sampler on the simulator: evaluates [probe] every
   [interval] from [start] until [until], recording into a fresh
   series that is returned immediately. *)
let sample_every sim ~start ~interval ~until probe =
  assert (interval > 0);
  let t = create () in
  let rec tick at () =
    if at <= until then begin
      record t ~at (probe ());
      ignore (Sim.schedule_at sim (at + interval) (tick (at + interval)))
    end
  in
  ignore (Sim.schedule_at sim start (tick start));
  t

(* Utilization probe: converts a cumulative byte counter into per-
   interval utilization of a link of the given rate.  Returns a probe
   function suitable for [sample_every]. *)
let utilization_probe ~rate ~interval read_tx_bytes =
  let last = ref (read_tx_bytes ()) in
  fun () ->
    let now_bytes = read_tx_bytes () in
    let delta = now_bytes - !last in
    last := now_bytes;
    let capacity = Units.bytes_in ~rate ~time:interval in
    if capacity = 0 then 0.
    else float_of_int delta /. float_of_int capacity
