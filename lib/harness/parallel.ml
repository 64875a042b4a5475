(* Parallel figure sweeps: the glue between the figure registry
   (Figures) and the fork-based sweep runner (lib/sweep).

   Each experiment decomposes into work units; a unit's payload is its
   rendered text fragment plus the number of simulator events it
   processed (measured inside the worker, so event counts survive the
   process boundary). Fragments are merged in canonical unit order,
   which makes the merged output byte-identical to a serial
   [Figures.render] of the same experiments — whatever [jobs] is. *)

type result = {
  output : string;       (* fragments merged in canonical order *)
  jobs : int;
  wall : float;          (* whole-sweep wall-clock seconds *)
  events : int;          (* simulator events across all shards *)
  resumed : int;
  shards : int;          (* work units, failed ones included *)
  failures : (string * string) list;  (* key, reason *)
}

(* Decompose [ids] into sweep unit specs, keys "<id>/<unit>".
   Raises [Invalid_argument] on an unknown experiment id. *)
let unit_specs ids (opts : Figures.opts) =
  List.concat_map
    (fun id ->
       match Figures.find id with
       | None -> invalid_arg ("Parallel.sweep: unknown experiment " ^ id)
       | Some e ->
         List.map
           (fun u ->
              { Ppt_sweep.Sweep.key = id ^ "/" ^ u.Figures.u_name;
                run =
                  (fun () ->
                     Runner.with_events_counted (fun () ->
                         Figures.render_unit u)) })
           (e.Figures.e_units opts))
    ids

let sweep_dir = "_sweep"

let ensure_dir d =
  try Unix.mkdir d 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Default journal location: one file per (experiment set, opts), so a
   resumed sweep can only ever meet a journal of the same sweep. The
   sweep header re-checks the full key list anyway. *)
let default_journal ids (o : Figures.opts) =
  let d =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s|%g|%d|%b" (String.concat "," ids)
            o.Figures.flows_scale o.Figures.seed o.Figures.full))
  in
  Filename.concat sweep_dir ("sweep-" ^ String.sub d 0 12 ^ ".journal")

let sweep ?(jobs = 1) ?timeout ?retries ?journal ?(resume = false)
    ?progress ~ids opts =
  let specs = unit_specs ids opts in
  (match journal with
   | Some path ->
     let dir = Filename.dirname path in
     if dir <> "." then ensure_dir dir
   | None -> ());
  let r =
    Ppt_sweep.Sweep.run ~jobs ?timeout ?retries ?journal ~resume
      ?progress specs
  in
  let buf = Buffer.create 4096 in
  let events = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (s : _ Ppt_sweep.Sweep.shard) ->
       match s.Ppt_sweep.Sweep.s_outcome with
       | Ppt_sweep.Sweep.Done ((frag : string), ev) ->
         Buffer.add_string buf frag;
         events := !events + ev
       | Ppt_sweep.Sweep.Failed msg ->
         Buffer.add_string buf
           (Printf.sprintf "(!) shard %s failed: %s\n"
              s.Ppt_sweep.Sweep.s_key msg);
         failures := (s.Ppt_sweep.Sweep.s_key, msg) :: !failures)
    r.Ppt_sweep.Sweep.shards;
  { output = Buffer.contents buf;
    jobs = r.Ppt_sweep.Sweep.r_jobs;
    wall = r.Ppt_sweep.Sweep.r_wall;
    events = !events;
    resumed = r.Ppt_sweep.Sweep.r_resumed;
    shards = List.length r.Ppt_sweep.Sweep.shards;
    failures = List.rev !failures }
