(* Trace aggregation at decoder speed: a trace of fig12 size has
   millions of events, so [add] does constant work and allocates
   nothing. It bumps mutable counters, a count array indexed by
   [Event.ordinal] and a per-port peak table indexed by node, then
   port, which allocates only when it grows to a new node or port
   number. Sorting by tag and by (node, port) waits for [by_tag],
   [max_occ] and [pp]. *)

(* Ports beyond [dense_max], negative node or port numbers (a decoded
   trace may hold any int) and an occupancy equal to [unseen] itself
   go to the [sparse] table instead, so garbage input cannot make the
   dense table huge. *)
let dense_max = 1 lsl 16
let unseen = min_int

type tables = {
  by_kind : int array;             (* Event.ordinal -> count *)
  mutable dense : int array array; (* node -> port -> peak, or [unseen] *)
  sparse : (int * int, int) Hashtbl.t;
}

type t = {
  mutable events : int;
  mutable data_enqueues : int;
  mutable marks : int;
  mutable drops : int;
  mutable trims : int;
  mutable retransmits : int;
  mutable fault_drops : int;
  mutable link_events : int;
  mutable flows_started : int;
  mutable flows_done : int;
  mutable t_first : int;
  mutable t_last : int;
  tables : tables;
}

let create () =
  { events = 0; data_enqueues = 0; marks = 0; drops = 0; trims = 0;
    retransmits = 0; fault_drops = 0; link_events = 0;
    flows_started = 0; flows_done = 0; t_first = max_int; t_last = 0;
    tables =
      { by_kind = Array.make Event.kinds 0; dense = [||];
        sparse = Hashtbl.create 8 } }

(* [a] grown to hold index [i], new slots set to [fill]. *)
let grow a i fill =
  let b = Array.make (Int.max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let peak tb node port occ =
  if node >= 0 && node < dense_max && port >= 0 && port < dense_max
     && occ <> unseen
  then begin
    if node >= Array.length tb.dense then tb.dense <- grow tb.dense node [||];
    let row = tb.dense.(node) in
    let row =
      if port < Array.length row then row
      else begin
        let row = grow row port unseen in
        tb.dense.(node) <- row;
        row
      end
    in
    if occ > row.(port) then row.(port) <- occ
  end else
    match Hashtbl.find_opt tb.sparse (node, port) with
    | Some v when v >= occ -> ()
    | _ -> Hashtbl.replace tb.sparse (node, port) occ

let add t ts (ev : Event.t) =
  let tb = t.tables in
  let k = Event.ordinal ev in
  tb.by_kind.(k) <- tb.by_kind.(k) + 1;
  t.events <- t.events + 1;
  if ts < t.t_first then t.t_first <- ts;
  if ts > t.t_last then t.t_last <- ts;
  (match ev with
   | Enqueue { node; port; kind; occ; _ } ->
     peak tb node port occ;
     if kind = 'D' then t.data_enqueues <- t.data_enqueues + 1
   | Dequeue { node; port; occ; _ } | Probe_queue { node; port; occ; _ } ->
     peak tb node port occ
   | Ecn_mark _ -> t.marks <- t.marks + 1
   | Drop { node; port; occ; _ } ->
     t.drops <- t.drops + 1;
     peak tb node port occ
   | Trim _ -> t.trims <- t.trims + 1
   | Retransmit _ -> t.retransmits <- t.retransmits + 1
   | Fault_drop _ -> t.fault_drops <- t.fault_drops + 1
   | Link_down _ | Link_up _ | Link_degrade _ ->
     t.link_events <- t.link_events + 1
   | Flow_start _ -> t.flows_started <- t.flows_started + 1
   | Flow_done _ -> t.flows_done <- t.flows_done + 1
   | Cwnd_update _ | Loop_switch _ | Rto_fire _ | Probe_link _
   | Probe_dt _ -> ());
  t

let of_list events =
  List.fold_left (fun acc (ts, ev) -> add acc ts ev) (create ()) events

let by_tag t =
  List.init Event.kinds (fun k ->
      (Event.tag_of_ordinal k, t.tables.by_kind.(k)))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort compare

let max_occ t =
  let dense = t.tables.dense in
  let seen (node, port) =
    node >= 0 && node < Array.length dense
    && port >= 0 && port < Array.length dense.(node)
    && dense.(node).(port) <> unseen
  in
  let peaks = ref [] in
  Array.iteri
    (fun node row ->
       Array.iteri
         (fun port v ->
            if v <> unseen then peaks := ((node, port), v) :: !peaks)
         row)
    dense;
  (* a sparse entry for a port the dense table also holds is an
     [unseen] occupancy, below any peak there *)
  Hashtbl.fold
    (fun key v acc -> if seen key then acc else (key, v) :: acc)
    t.tables.sparse !peaks
  |> List.sort compare

let mark_rate t =
  if t.data_enqueues = 0 then nan
  else float_of_int t.marks /. float_of_int t.data_enqueues

let pp ppf t =
  Format.fprintf ppf "@[<v>events        %d" t.events;
  if t.events > 0 then
    Format.fprintf ppf "@,span          %d .. %d ns" t.t_first t.t_last;
  Format.fprintf ppf
    "@,flows         %d started, %d done@,\
     data enqueues %d@,marks         %d (rate %.4f)@,\
     drops/trims   %d/%d@,retransmits   %d"
    t.flows_started t.flows_done t.data_enqueues t.marks
    (let r = mark_rate t in if Float.is_nan r then 0. else r)
    t.drops t.trims t.retransmits;
  if t.fault_drops > 0 || t.link_events > 0 then
    Format.fprintf ppf "@,faults        %d drops, %d link events"
      t.fault_drops t.link_events;
  Format.fprintf ppf "@,by event:";
  List.iter (fun (tag, n) -> Format.fprintf ppf "@,  %-12s %d" tag n)
    (by_tag t);
  let occ = max_occ t in
  if occ <> [] then begin
    Format.fprintf ppf "@,max occupancy per port:";
    List.iter
      (fun ((node, port), v) ->
         Format.fprintf ppf "@,  node %-3d port %-2d %8d B" node port v)
      occ
  end;
  Format.fprintf ppf "@]"
