(* The skeleton shared by the receiver-driven transports (NDP,
   ExpressPass, Homa/Aeolus).

   The sender transmits data segments ([Context.send_data]) when the
   receiver lets it (a pull, a credit, a grant) and keeps a
   fixed-period RTO backstop for lost control packets; the flow's
   teardown stops it. The receiver records segments and its grant on
   the flow itself ([Flow.accept], [Flow.granted]), finishes the flow
   through [Context.flow_finished], and keeps per-host scheduling state
   (a pull pacer, a credit pacer, an SRPT grant scheduler). Each
   protocol supplies only its policy: what the receiver's packet means
   to the sender, what the receiver sends back and when, and what the
   backstop resends. *)

open Ppt_engine
open Ppt_netsim

(* ---- sender -------------------------------------------------------- *)

type sender = {
  ctx : Context.t;
  flow : Flow.t;
  mutable snd_nxt : int;
  mutable cum : int;
  mutable timer : int;                (* the pending backstop, or -1 *)
  mutable fire : unit -> unit;
}

(* The flow's teardown cancels the backstop, and nothing else needs
   stopping: the flow finishes at its receiver, never inside a sender's
   call, and then has no handler left to reach the sender. *)
let sender ctx (flow : Flow.t) =
  let s = { ctx; flow; snd_nxt = 0; cum = 0; timer = -1; fire = ignore } in
  flow.teardown <- (fun () ->
      Sim.cancel ctx.Context.sim s.timer;
      s.timer <- -1);
  s

let arm s =
  s.timer <- Sim.schedule s.ctx.Context.sim ~after:s.ctx.Context.rto_min s.fire

let backstop s resend =
  s.fire <- (fun () ->
      s.timer <- -1;
      resend ();
      arm s);
  arm s

(* ---- receiver ------------------------------------------------------ *)

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
