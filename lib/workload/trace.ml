(* Flow-trace generation: traffic patterns + Poisson arrivals.

   The paper generates flows "by randomly starting flows following the
   Poisson process and controlling the inter-arrival time of flows to
   achieve the desired network load" (§6.1). Load is defined against
   the aggregate edge capacity of the sending hosts, so the mean
   inter-arrival of the global process is

     1/lambda = mean_flow_size * 8 / (load * n_senders * edge_rate).   *)

open Ppt_engine

type spec = {
  id : int;
  src : int;
  dst : int;
  size : int;                (* bytes *)
  start : Units.time;
}

type pattern =
  | All_to_all of int array
  (* every host both sends and receives; src and dst drawn uniformly *)
  | Incast of { senders : int array; receiver : int }
  (* N-to-1: load is defined against the receiver's single edge link *)

let mean_interarrival_ns ~mean_size ~load ~agg_rate =
  if load <= 0. || load > 10. then invalid_arg "Trace: bad load";
  let bits = mean_size *. 8. in
  bits /. (load *. float_of_int agg_rate) *. 1e9

(* Aggregate sending capacity that the target load refers to. *)
let agg_rate ~edge_rate = function
  | All_to_all hosts -> Array.length hosts * edge_rate
  | Incast _ -> edge_rate       (* the receiver link is the bottleneck *)

(* The arrival clock, in ns. A record of floats alone is stored flat,
   so advancing it allocates nothing. *)
type clock = { mutable now : float }

(* Each call draws the next flow: its inter-arrival, its endpoints and
   its size, each from a stream of its own. The spec record is the
   only allocation. *)
let source ~rng ~cdf ~pattern ~edge_rate ~load () =
  let arr_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  let pick_rng = Rng.split rng in
  let mean_ia =
    mean_interarrival_ns ~mean_size:(Cdf.mean cdf) ~load
      ~agg_rate:(agg_rate ~edge_rate pattern)
  in
  let clock = { now = 0. } and next_id = ref 0 in
  fun () ->
    clock.now <- clock.now +. Rng.exponential arr_rng ~mean:mean_ia;
    let id = !next_id in
    next_id := id + 1;
    let start = int_of_float clock.now in
    let size = Cdf.sample cdf size_rng in
    match pattern with
    | All_to_all hosts ->
      (* src and dst uniform over the hosts, dst <> src *)
      let n = Array.length hosts in
      let s = Rng.int pick_rng n in
      let d = Rng.int pick_rng (n - 1) in
      { id; src = hosts.(s); dst = hosts.(if d >= s then d + 1 else d);
        size; start }
    | Incast { senders; receiver } ->
      let s = Rng.int pick_rng (Array.length senders) in
      { id; src = senders.(s); dst = receiver; size; start }

let generate ~rng ~cdf ~pattern ~edge_rate ~load ~n_flows () =
  let next = source ~rng ~cdf ~pattern ~edge_rate ~load () in
  List.init n_flows (fun _ -> next ())

let cursor specs =
  let rest = ref specs in
  fun () ->
    match !rest with
    | s :: tl -> rest := tl; s
    | [] -> invalid_arg "Trace.cursor: past the last flow"

let total_bytes specs =
  List.fold_left (fun acc s -> acc + s.size) 0 specs

(* CSV round-trip so external traces (or recorded ones) can be
   replayed: "id,src,dst,size_bytes,start_ns", one flow per line,
   with a header. *)

let csv_header = "id,src,dst,size_bytes,start_ns"

let to_csv specs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
       Buffer.add_string buf
         (Printf.sprintf "%d,%d,%d,%d,%d\n" s.id s.src s.dst s.size
            s.start))
    specs;
  Buffer.contents buf

let of_csv text =
  let parse_line lineno line =
    match String.split_on_char ',' (String.trim line) with
    | [ id; src; dst; size; start ] ->
      (try
         let spec =
           { id = int_of_string id; src = int_of_string src;
             dst = int_of_string dst; size = int_of_string size;
             start = int_of_string start }
         in
         if spec.size <= 0 || spec.start < 0 || spec.src = spec.dst then
           invalid_arg
             (Printf.sprintf "Trace.of_csv: invalid flow at line %d"
                lineno);
         spec
       with Failure _ ->
         invalid_arg
           (Printf.sprintf "Trace.of_csv: bad number at line %d" lineno))
    | _ ->
      invalid_arg
        (Printf.sprintf "Trace.of_csv: expected 5 fields at line %d"
           lineno)
  in
  let lines = String.split_on_char '\n' text in
  (* a headerless file would otherwise lose its first flow here and
     then fail on a misleading flow id *)
  if String.trim (List.hd lines) <> csv_header then
    invalid_arg
      (Printf.sprintf "Trace.of_csv: line 1 is not the header %S" csv_header);
  let rows =
    lines
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (lineno, l) -> lineno > 1 && String.trim l <> "")
    |> List.map (fun (lineno, l) -> (lineno, parse_line lineno l))
  in
  (* Ids are [0, n), each once, as [to_csv] writes them. An id names
     one flow in the FCT records, the event trace and the fabric's
     delivery table. That table is keyed by the live flows' ids modulo
     its size: flows that start close together have close ids, so they
     land in distinct slots of a small table, where arbitrary ids could
     clash and double it over and over. *)
  let n = List.length rows in
  let seen = Array.make n false in
  List.iter
    (fun (lineno, s) ->
       if s.id < 0 || s.id >= n then
         invalid_arg
           (Printf.sprintf
              "Trace.of_csv: flow id %d at line %d outside [0, %d)" s.id
              lineno n);
       if seen.(s.id) then
         invalid_arg
           (Printf.sprintf "Trace.of_csv: duplicate flow id %d at line %d"
              s.id lineno);
       seen.(s.id) <- true)
    rows;
  List.stable_sort (fun a b -> Int.compare a.start b.start) (List.map snd rows)
