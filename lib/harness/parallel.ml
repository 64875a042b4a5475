(* Parallel figure sweeps over the fork-based runner (lib/sweep). A
   shard is one distinct simulation of the swept units, run once however
   many units need it; its payload is its outcome and the user+sys CPU
   seconds it took in its child. The parent renders every unit in
   canonical order from the outcomes, read back from the shards' result
   files as it renders, so the output is byte-identical to a serial
   [Figures.render] of the same experiments at any [jobs]. *)

open Ppt_sweep

type result = {
  output : string;       (* every unit, rendered in canonical order *)
  wall : float;          (* whole-sweep wall-clock seconds *)
  units : int;
  sims : int;            (* distinct simulations: the shards *)
  cpu : float;           (* user+sys seconds inside those simulations *)
  events : int;          (* simulator events across them *)
  resumed : int;
  failures : (string * string) list;  (* simulation key, reason *)
}

(* Default result directory: one per (experiment set, opts), so a
   resumed sweep only ever meets the files of the same sweep. Each file
   re-checks its simulation's key anyway. *)
let default_dir ids (o : Figures.opts) =
  let d =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s|%g|%d|%b" (String.concat "," ids)
            o.Figures.flows_scale o.Figures.seed o.Figures.full))
  in
  Filename.concat "_sweep" ("sweep-" ^ String.sub d 0 12)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Raises [Invalid_argument] on an unknown experiment id. *)
let sweep ?(jobs = 1) ?timeout ~dir ?(resume = false) ?progress ~ids opts =
  let t0 = Unix.gettimeofday () in
  let units =
    List.concat_map
      (fun id ->
         match Figures.find id with
         | None -> invalid_arg ("Parallel.sweep: unknown experiment " ^ id)
         | Some e ->
           List.map (fun u -> (id ^ "/" ^ u.Figures.u_name, u))
             (e.Figures.e_units opts))
      ids
  in
  let outcomes = Hashtbl.create 256 and resumed = ref 0 in
  let outcome (s : Figures.sim) = Hashtbl.find outcomes s.Figures.key in
  let failed s =
    match outcome s with Sweep.Failed msg -> Some msg | Sweep.Done _ -> None
  in
  (* Reads the outcome from its result file: the parent holds none. *)
  let get s =
    match outcome s with
    | Sweep.Done read -> fst (read ())
    | Sweep.Failed msg -> failwith msg
  in
  (* One [Sweep.run] over [sims]; a run whose input failed fails with
     it. *)
  let phase ~resume sims =
    let run (s : Figures.sim) () =
      let c0 = cpu_seconds () in
      let out = Figures.exec s ~get in
      (out, cpu_seconds () -. c0)
    in
    let r =
      Sweep.run ~jobs ?timeout ~dir ~resume ?progress
        (List.map (fun s -> { Sweep.key = s.Figures.key; run = run s }) sims)
    in
    resumed := !resumed + r.Sweep.r_resumed;
    List.iter
      (fun (sh : _ Sweep.shard) ->
         Hashtbl.replace outcomes sh.Sweep.s_key sh.Sweep.s_outcome)
      r.Sweep.shards
  in
  (* Hypothetical-DCTCP runs read their DCTCP run's file, so they run
     in a second phase, in the same directory: it reuses what it finds,
     which is nothing unless [resume], as the first phase emptied it. *)
  let sims = Figures.distinct (List.map snd units) in
  let first, second =
    List.partition (fun (s : Figures.sim) -> Option.is_none s.Figures.needs)
      sims
  in
  phase ~resume first;
  if second <> [] then phase ~resume:true second;
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (key, u) ->
       match List.filter_map failed u.Figures.u_sims with
       | msg :: _ -> Format.fprintf ppf "(!) shard %s failed: %s@\n" key msg
       | [] -> u.Figures.u_render get ppf)
    units;
  Format.pp_print_flush ppf ();
  let cpu, events =
    List.fold_left
      (fun (cpu, events) s ->
         match outcome s with
         | Sweep.Done read ->
           let out, c = read () in
           (cpu +. c, events + out.Figures.result.Runner.events)
         | Sweep.Failed _ -> (cpu, events))
      (0., 0) sims
  in
  { output = Buffer.contents buf;
    wall = Unix.gettimeofday () -. t0;
    units = List.length units;
    sims = List.length sims;
    cpu;
    events;
    resumed = !resumed;
    failures =
      List.filter_map
        (fun (s : Figures.sim) ->
           Option.map (fun msg -> (s.Figures.key, msg)) (failed s))
        sims }
