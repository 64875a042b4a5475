(* The skeleton shared by the receiver-driven transports (NDP,
   ExpressPass, Homa/Aeolus).

   The sender transmits data segments when the receiver lets it (a
   pull, a credit, a grant) and keeps a fixed-period RTO backstop for
   lost control packets. The receiver records segments on the flow's
   own scoreboard ([Flow.accept]), keeps per message only what it has
   granted, and keeps per-host scheduling state (a pull pacer, a
   credit pacer, an SRPT grant scheduler). Each protocol supplies only
   its policy: what the receiver's packet means to the sender, what the
   receiver sends back and when, and what the backstop resends. *)

open Ppt_engine
open Ppt_netsim

(* ---- sender -------------------------------------------------------- *)

type sender = {
  ctx : Context.t;
  flow : Flow.t;
  mutable snd_nxt : int;
  mutable cum : int;
  mutable timer : int;                (* the pending backstop, or -1 *)
  mutable shut : bool;
  mutable fire : unit -> unit;
}

let sender ctx flow =
  { ctx; flow; snd_nxt = 0; cum = 0; timer = -1; shut = false;
    fire = ignore }

let send_data s ~prio ?(first_rtt = false) ?(sel_drop = false)
    ~retransmission seq =
  let flow = s.flow in
  let pay = Flow.seg_payload flow seq in
  let pkt =
    Packet.make ~seq ~payload:pay ~prio ~sel_drop ~flow:flow.Flow.id
      ~src:flow.Flow.src ~dst:flow.Flow.dst Packet.Data
  in
  Wire.set_data pkt ~tx:(Sim.now s.ctx.Context.sim) ~first_rtt;
  Context.count_op s.ctx flow.Flow.src;
  flow.Flow.hcp_payload <- flow.Flow.hcp_payload + pay;
  if retransmission then flow.Flow.retrans <- flow.Flow.retrans + 1;
  Net.send s.ctx.Context.net pkt

let arm s =
  if not s.shut then
    s.timer <-
      Sim.schedule s.ctx.Context.sim ~after:s.ctx.Context.rto_min s.fire

let backstop s resend =
  s.fire <- (fun () ->
      s.timer <- -1;
      if not s.shut then begin
        resend ();
        arm s
      end);
  arm s

let shutdown s =
  s.shut <- true;
  Sim.cancel s.ctx.Context.sim s.timer;
  s.timer <- -1

(* ---- receiver ------------------------------------------------------ *)

type msg = {
  m_flow : Flow.t;
  mutable granted : int;
  mutable on_done : unit -> unit;
}

let message ?(granted = 0) flow = { m_flow = flow; granted; on_done = ignore }

let finish ctx m =
  Context.flow_finished ctx m.m_flow;
  m.on_done ()

let control (flow : Flow.t) kind =
  Packet.make ~prio:0 ~flow:flow.Flow.id ~src:flow.Flow.dst
    ~dst:flow.Flow.src kind

type pacer = {
  sim : Sim.t;
  mutable pacing : bool;
  mutable tick : unit -> unit;   (* preallocated pacer callback *)
}

(* One [emit] per MTU serialization slot of the receiver's edge link,
   until [emit] finds nothing to send: this clocks aggregate inbound
   traffic at line rate. *)
let pacer ctx emit =
  let p = { sim = ctx.Context.sim; pacing = false; tick = ignore } in
  let slot = Units.tx_time ~rate:ctx.Context.edge_rate ~bytes:Packet.mtu in
  p.tick <- (fun () ->
      if emit () then ignore (Sim.schedule p.sim ~after:slot p.tick)
      else p.pacing <- false);
  p

let kick p =
  if not p.pacing then begin
    p.pacing <- true;
    ignore (Sim.schedule p.sim ~after:0 p.tick)
  end

let per_host ctx make =
  let states = Array.make (Net.n_nodes ctx.Context.net) None in
  fun host ->
    match states.(host) with
    | Some st -> st
    | None ->
      let st = make () in
      states.(host) <- Some st;
      st

(* ---- wiring -------------------------------------------------------- *)

let connect s m ~at_src ~at_dst =
  m.on_done <- (fun () ->
      shutdown s;
      Endpoint.disconnect s.ctx s.flow);
  Endpoint.connect s.ctx s.flow ~at_src ~at_dst
