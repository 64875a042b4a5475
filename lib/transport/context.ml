(* Per-run environment shared by all transports: the simulator, the
   fabric, derived path constants, the FCT sink and per-host datapath
   operation counters (the Fig. 19 CPU-overhead proxy). It also holds
   the two steps of a flow's life every transport shares: sending a
   data segment and finishing the flow. *)

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
  mutable flow_wmax : (int * float) list;  (* finished DCTCP flows *)
}

let of_topology ~rto_min ~rng (topo : Topology.built) =
  (* A fresh context means a fresh run: drop the packet arena and
     restart the uid sequence, so rerunning an experiment in one
     process is byte-identical to the first run (uids feed the
     per-packet spraying hash). *)
  Packet.reset ();
  let net = topo.net in
  { sim = Net.sim net; net; base_rtt = topo.base_rtt;
    edge_rate = topo.edge_rate;
    bdp = Units.bdp ~rate:topo.edge_rate ~rtt:topo.base_rtt;
    rto_min; fct = Fct.create (); rng;
    ops = Array.make (Net.n_nodes net) 0;
    started = 0; completed = 0; on_complete = ignore; flow_wmax = [] }

let now t = Sim.now t.sim

let count_op t host = t.ops.(host) <- t.ops.(host) + 1

let flow_started t (flow : Flow.t) =
  t.started <- t.started + 1;
  if !Ppt_obs.Trace.enabled then
    Ppt_obs.Trace.emit (now t)
      (Ppt_obs.Event.Flow_start
         { flow = flow.Flow.id; size = flow.Flow.size })

(* The one place a data segment is made: every transport sends its data
   here, so each send is stamped, counted (one operation at the source,
   its payload by loop, a retransmission) and traced alike. The segment
   is built with [Packet.acquire], whose arguments are not optional, so
   a send allocates nothing even where the call is not inlined. *)
let send_data t (flow : Flow.t) ~loop ~prio ~ecn_capable ~first_rtt
    ~sel_drop ~retransmission seq =
  let pay = Flow.seg_payload flow seq in
  let pkt =
    Packet.acquire ~uid:(Packet.next_uid ()) ~flow:flow.Flow.id
      ~src:flow.Flow.src ~dst:flow.Flow.dst ~seq ~payload:pay
      ~wire:(Packet.header_bytes + pay) ~prio ~kind:Packet.Data ~loop
      ~ecn_capable ~ecn_ce:false ~trimmed:false ~sel_drop
  in
  Wire.set_data pkt ~tx:(now t) ~first_rtt;
  count_op t flow.Flow.src;
  (match loop with
   | Packet.H -> flow.Flow.hcp_payload <- flow.Flow.hcp_payload + pay
   | Packet.L -> flow.Flow.lcp_payload <- flow.Flow.lcp_payload + pay);
  Net.send t.net pkt;
  if retransmission then begin
    flow.Flow.retrans <- flow.Flow.retrans + 1;
    if !Ppt_obs.Trace.enabled then
      Ppt_obs.Trace.emit (now t)
        (Ppt_obs.Event.Retransmit
           { flow = flow.Flow.id; seq;
             loop = (match loop with Packet.H -> 'H' | Packet.L -> 'L') })
  end

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
    t.on_complete flow.id;
    flow.teardown ();
    Net.unregister t.net ~host:flow.src ~flow:flow.id;
    Net.unregister t.net ~host:flow.dst ~flow:flow.id
