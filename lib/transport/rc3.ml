(* RC3: Recursively Cautious Congestion Control [30].

   The primary loop is a normal TCP-style loop (DCTCP here, as in the
   paper's evaluation setup, §6.1) sending from the head of the flow.
   In parallel, at flow start, RC3 immediately transmits *all* the
   remaining data from the tail at low in-network priorities: the last
   ~40 packets at the first low priority, the next 40^2 at the second,
   the next 40^3 at the third, everything else at the lowest. The low
   loops are open-loop: no pacing window, no ECN reaction, no attempt
   to protect the primary loop — exactly the behaviour PPT's §3
   "Remarks" contrasts against. Transmission stops when the low loop
   crosses paths with the primary loop.

   Low-priority packets leave at NIC line rate. The recommended 2GB
   send buffer makes essentially the whole flow eligible. *)

open Ppt_engine
open Ppt_netsim

let sendbuf_bytes = Units.mb 2000       (* the recommended 2GB *)

(* packets per low priority level, from the tail *)
let level_counts = [| 40; 1600; 64000 |]

(* The level of the [n]-th packet from the tail, scanning from level
   [i], which starts [acc] packets in. Top level rather than local to
   [lp_prio]: a local recursive function capturing [n] would be a
   closure allocated for every packet. *)
let rec level n i acc =
  if i >= Array.length level_counts then Array.length level_counts
  else if n < acc + level_counts.(i) then i
  else level n (i + 1) (acc + level_counts.(i))

(* Priority of the [n]-th low-priority packet counted from the tail. *)
let lp_prio n = Prio_queue.lp_band_start + level n 0 0

(* The low loops' state, the sender's [ext]. *)
type lcp_state = {
  mutable sent_count : int;
  mutable timer : int;                (* the armed pacer, or -1 *)
  mutable pump_fire : unit -> unit;   (* preallocated pacer callback *)
  mutable stopped : bool;
}

let stop_lcp (s : lcp_state Reliable.t) =
  let st = s.Reliable.ext in
  st.stopped <- true;
  Sim.cancel s.Reliable.ctx.Context.sim st.timer;
  st.timer <- -1

(* Blast the tail at line rate: one low-priority segment per NIC
   serialization slot until the loops cross or the buffer is empty. *)
let lcp_pump (s : lcp_state Reliable.t) =
  let st = s.Reliable.ext and ctx = s.Reliable.ctx in
  st.timer <- -1;
  if not st.stopped then begin
    let pay = Reliable.send_tail ~prio:(lp_prio st.sent_count) s in
    (* 0: crossed with the primary loop, RC3's stop rule *)
    if pay > 0 then begin
      st.sent_count <- st.sent_count + 1;
      let slot =
        Units.tx_time ~rate:ctx.Context.edge_rate
          ~bytes:(pay + Packet.header_bytes)
      in
      st.timer <- Sim.schedule ctx.Context.sim ~after:slot st.pump_fire
    end
  end

(* The low loops start together with the primary loop. *)
let start_lcp (s : lcp_state Reliable.t) =
  let st = s.Reliable.ext in
  st.pump_fire <- (fun () -> lcp_pump s);
  ignore (Sim.schedule s.Reliable.ctx.Context.sim ~after:0 st.pump_fire)

let make () =
  let params =
    Reliable.default_params ~lcp_ecn_capable:false ~sendbuf_bytes ()
  in
  let window =
    Endpoint.window ~params
      { Dctcp.policy with Reliable.init = start_lcp; release = stop_lcp }
  in
  fun ctx flow ->
    window
      { sent_count = 0; timer = -1; pump_fire = ignore; stopped = false }
      ctx flow
