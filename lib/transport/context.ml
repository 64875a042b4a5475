(* Per-run environment shared by all transports: the simulator, the
   fabric, derived path constants, the FCT sink, per-host datapath
   operation counters (the Fig. 19 CPU-overhead proxy) and the run's
   timer table.

   The timer table holds the callbacks senders preallocate for their
   per-flow timers (an RTO, a pacer, a watchdog). A sender adds its
   callback once and gets an id; arming the timer posts the id on the
   simulator's int lane to the one handler the context registers, so
   arming, firing and cancelling allocate nothing and store no
   pointer. Free ids are chained through [timer_next]. *)

open Ppt_engine
open Ppt_netsim
open Ppt_stats

type t = {
  sim : Sim.t;
  net : Net.t;
  base_rtt : Units.time;
  edge_rate : Units.rate;
  bdp : int;                        (* bytes, of the edge path *)
  rto_min : Units.time;
  fct : Fct.t;
  rng : Rng.t;
  ops : int array;                  (* per-node datapath operations *)
  mutable started : int;
  mutable completed : int;
  mutable on_complete : int -> unit;  (* flow id *)
  mutable timers : (unit -> unit) array;  (* callbacks, by timer id *)
  mutable timer_next : int array;   (* free-list links *)
  mutable timer_free : int;         (* free-list head, -1 when empty *)
  mutable timer_h : Sim.handler;
}

let create ~sim ~net ~base_rtt ~edge_rate ~rto_min ~rng () =
  (* A fresh context means a fresh run: drop the packet arena and
     restart the uid sequence, so rerunning an experiment in one
     process is byte-identical to the first run (uids feed the
     per-packet spraying hash). *)
  Packet.reset ();
  let t =
    { sim; net; base_rtt; edge_rate;
      bdp = Units.bdp ~rate:edge_rate ~rtt:base_rtt;
      rto_min; fct = Fct.create (); rng;
      ops = Array.make (Net.n_nodes net) 0;
      started = 0; completed = 0; on_complete = ignore;
      timers = [||]; timer_next = [||]; timer_free = -1;
      timer_h = Sim.no_handler }
  in
  t.timer_h <- Sim.register sim (fun id -> (Array.unsafe_get t.timers id) ());
  t

let of_topology ?(rto_min = Units.ms 10) ~rng (topo : Topology.built) =
  create ~sim:(Net.sim topo.net) ~net:topo.net ~base_rtt:topo.base_rtt
    ~edge_rate:topo.edge_rate ~rto_min ~rng ()

let now t = Sim.now t.sim

let count_op t host = t.ops.(host) <- t.ops.(host) + 1

let flow_started t (flow : Flow.t) =
  t.started <- t.started + 1;
  if !Ppt_obs.Trace.enabled then
    Ppt_obs.Trace.emit (now t)
      (Ppt_obs.Event.Flow_start
         { flow = flow.Flow.id; size = flow.Flow.size })

let flow_finished t (flow : Flow.t) =
  match flow.finished with
  | Some _ -> ()    (* already recorded *)
  | None ->
    let finish = now t in
    flow.finished <- Some finish;
    if !Ppt_obs.Trace.enabled then
      Ppt_obs.Trace.emit finish
        (Ppt_obs.Event.Flow_done
           { flow = flow.Flow.id; size = flow.Flow.size;
             fct = finish - flow.Flow.start });
    Fct.add t.fct
      { Fct.flow = flow.id; size = flow.size; start = flow.start;
        finish; retrans = flow.retrans; hcp_payload = flow.hcp_payload;
        lcp_payload = flow.lcp_payload;
        hcp_delivered = flow.hcp_delivered;
        lcp_delivered = flow.lcp_delivered };
    t.completed <- t.completed + 1;
    t.on_complete flow.id

(* --- the timer table ---------------------------------------------- *)

let add_timer t f =
  if t.timer_free < 0 then begin
    let n = Array.length t.timers in
    let m = Int.max 64 (2 * n) in
    let timers = Array.make m ignore and next = Array.make m (-1) in
    Array.blit t.timers 0 timers 0 n;
    for i = n to m - 2 do next.(i) <- i + 1 done;
    t.timers <- timers;
    t.timer_next <- next;
    t.timer_free <- n
  end;
  let id = t.timer_free in
  t.timer_free <- t.timer_next.(id);
  t.timers.(id) <- f;
  id

let remove_timer t id =
  t.timers.(id) <- ignore;
  t.timer_next.(id) <- t.timer_free;
  t.timer_free <- id

let post_timer t ~after id = Sim.post t.sim ~after t.timer_h id
