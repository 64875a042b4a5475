(* One measured run of a workload instance through [Runner.run].

   The benchmark times the run from outside: host clocks and GC
   counters are read on entry, in the [observe] callback (set-up done,
   the clock is about to start), when the last flow completes, and on
   return. The major heap's size is sampled at those points and every
   16th flow completion. Counters come from the fabric's public state
   afterwards. *)

open Ppt_netsim
open Ppt_stats
open Ppt_transport
open Ppt_harness
module Event = Ppt_obs.Event
module Summary = Ppt_obs.Summary
module Trace = Ppt_obs.Trace

type snap = {
  cpu : float;        (* process user+sys seconds *)
  wall : float;
  minor : float;      (* words allocated so far *)
  major : float;
  major_gcs : int;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let snap () =
  let g = Gc.quick_stat () in
  { cpu = cpu (); wall = Unix.gettimeofday ();
    minor = Gc.minor_words (); major = g.Gc.major_words;
    major_gcs = g.Gc.major_collections }

type t = {
  result : Runner.result;
  net : Net.t;
  ctx : Context.t;
  t0 : snap;        (* entering Runner.run *)
  t_setup : snap;   (* its observe callback *)
  t_sim : snap;     (* the last flow completed *)
  t_end : snap;     (* Runner.run returned *)
  mutable peak_words : int;   (* largest major heap sampled *)
  cal : Calib.t;    (* host-speed slices run inside the simulate phase *)
}

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Start a run as a fresh process would: with an empty packet free
   list and a collected heap. It then pays neither for an earlier
   run's garbage nor less for the packets that run left pooled, and
   its heap samples are its own. *)
let fresh_process () =
  for _ = 1 to Packet.pool_size () do
    ignore (Packet.make ~flow:0 ~src:0 ~dst:0 Packet.Ctrl)
  done;
  Gc.full_major ()

(* [slices] host-speed slices ([Calib.slice]) run spread over the flow
   completions; the times below leave them out. *)
let run ?(observe = fun _ _ -> ()) ?(slices = 0) (cfg : Config.t) =
  let setup = ref None and sim_end = ref None and parts = ref None in
  let peak = ref 0 in
  let cal = Calib.create () in
  let every =
    if slices = 0 then max_int else max 1 (cfg.Config.n_flows / slices)
  in
  let sample () = peak := max !peak (heap_words ()) in
  fresh_process ();
  let t0 = snap () in
  let result =
    Runner.run cfg Workloads.scheme ~observe:(fun ctx topo ->
        let finish = ctx.Context.on_complete in
        ctx.Context.on_complete <- (fun flow ->
            finish flow;
            let n = ctx.Context.completed in
            if n land 15 = 0 then sample ();
            if n mod every = 0 then Calib.slice cal;
            if n = cfg.Config.n_flows then begin
              sample ();
              sim_end := Some (snap ())
            end);
        parts := Some (ctx, topo.Topology.net);
        observe ctx topo;
        sample ();
        setup := Some (snap ()))
  in
  sample ();
  let t_end = snap () in
  match !parts, !setup with
  | Some (ctx, net), Some t_setup ->
    { result; net; ctx; t0; t_setup;
      t_sim = Option.value !sim_end ~default:t_end; t_end;
      peak_words = !peak; cal }
  | _ -> failwith "Runner.run returned without calling observe"

(* Count the heap as it is now towards the run's peak, for work done
   on the run's output after it returned. *)
let sample_heap t = t.peak_words <- max t.peak_words (heap_words ())

let cpu_s t = t.t_end.cpu -. t.t0.cpu -. t.cal.Calib.cpu_s
let wall_s t = t.t_end.wall -. t.t0.wall -. t.cal.Calib.wall_s
let sim_cpu_s t = t.t_sim.cpu -. t.t_setup.cpu -. t.cal.Calib.cpu_s

exception Setup_done

(* Host seconds from entering [Runner.run] to its observe callback,
   abandoning the run there. *)
let setup_only cfg =
  let t0 = Unix.gettimeofday () in
  match
    Runner.run cfg Workloads.scheme ~observe:(fun _ _ -> raise Setup_done)
  with
  | _ -> failwith "observe was not called"
  | exception Setup_done -> Unix.gettimeofday () -. t0

(* ---- counters ---- *)

let sum_ports net f =
  let acc = ref 0 in
  for n = 0 to Net.n_nodes net - 1 do
    Array.iter (fun p -> acc := !acc + f p) (Net.node net n).Net.ports
  done;
  !acc

let hops t = sum_ports t.net (fun p -> Prio_queue.enqueues p.Net.q)
let trims t = sum_ports t.net (fun p -> Prio_queue.trims p.Net.q)
let transport_ops t = Array.fold_left ( + ) 0 t.ctx.Context.ops

(* Digest of every flow's FCT record, in flow order. *)
let digest t =
  let b = Buffer.create 65536 in
  List.sort (fun (a : Fct.record) b -> compare a.Fct.flow b.Fct.flow)
    t.result.Runner.records
  |> List.iter (fun (r : Fct.record) ->
      Printf.bprintf b "%d,%d,%d,%d,%d,%d,%d,%d,%d\n" r.Fct.flow r.Fct.size
        r.Fct.start r.Fct.finish r.Fct.retrans r.Fct.hcp_payload
        r.Fct.lcp_payload r.Fct.hcp_delivered r.Fct.lcp_delivered);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Output check: every flow completed before the horizon and, for the
   default seed, the FCT digest and the event and hop counts equal the
   recorded references. Returns the failures found. *)
let check (w : Workloads.t) ~seed ~index ~flows t =
  let r = t.result in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if r.Runner.requested <> flows || r.Runner.completed <> flows then
    fail "completed %d of %d flows" r.Runner.completed flows;
  if r.Runner.last_finish >= Runner.horizon then fail "ran into the horizon";
  if seed = Workloads.default_seed && flows = w.Workloads.flows
     && index < Array.length w.Workloads.references
  then begin
    let ref_ = w.Workloads.references.(index) in
    let d = digest t in
    if d <> ref_.Workloads.digest then
      fail "fct digest %s, reference %s" d ref_.Workloads.digest;
    if r.Runner.events <> ref_.Workloads.events then
      fail "events %d, reference %d" r.Runner.events ref_.Workloads.events;
    if hops t <> ref_.Workloads.hops then
      fail "hops %d, reference %d" (hops t) ref_.Workloads.hops
  end;
  List.rev !fails

(* ---- summaries ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median host seconds of [f ()], repeated until about [budget]
   seconds have gone. *)
let median_time ?(budget = 0.05) f =
  let start = Unix.gettimeofday () in
  let rec go acc n =
    if n >= 1 && Unix.gettimeofday () -. start >= budget then acc
    else begin
      let t0 = Unix.gettimeofday () in
      f ();
      go ((Unix.gettimeofday () -. t0) :: acc) (n + 1)
    end
  in
  median (go [] 0)

(* The statistics every figure prints from a run: the FCT summary and
   the slowdown statistics over its records. *)
let fct_summary_s t =
  let r = t.result in
  let fct = Fct.create () in
  List.iter (Fct.add fct) r.Runner.records;
  median_time (fun () ->
      ignore (Sys.opaque_identity (Fct.summarize fct));
      ignore
        (Sys.opaque_identity
           (Fct.slowdown_stats ~rate:r.Runner.edge_rate
              ~base_rtt:r.Runner.base_rtt fct)))

(* Binary trace written to [path] that counts the events it receives;
   [close] returns that count. *)
let file_sink path =
  let oc = open_out_bin path in
  let sink, flush = Trace.binary_sink oc in
  let n = ref 0 in
  let close () = flush (); close_out oc; !n in
  ((fun ts ev -> incr n; sink ts ev), close)

(* Read a binary trace back, decode every event and fold the summary,
   as `ppt_trace summary` does. *)
let summarize_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let m = String.length Event.bin_magic in
  if String.length s < m || String.sub s 0 m <> Event.bin_magic then
    failwith "not a binary trace";
  let pos = ref m in
  let rec go acc =
    match Event.of_binary s pos with
    | None -> acc
    | Some (ts, ev) -> go (Summary.add acc ts ev)
  in
  go (Summary.create ())
