(* Homa [32], and its Aeolus [17] variant.

   Receiver-driven proactive transport:
   - the sender blindly transmits up to RTTbytes (the context BDP) of
     *unscheduled* data the moment a message starts;
   - the receiver grants the remainder in RTTbytes-sized windows,
     running SRPT over its active inbound messages with a fixed degree
     of overcommitment (grants go to the K shortest-remaining
     messages);
   - in-network priorities: unscheduled data uses the top levels (split
     by message size), scheduled data is assigned per-grant by SRPT
     rank; grants and other control packets ride at P0;
   - loss recovery is timeout-based, as in the Aeolus-simulator setup
     the paper uses for Homa (§6.2), plus hole repair driven by
     stagnant grant progress.

   Aeolus changes the first-RTT behaviour: the unscheduled packets are
   flagged for selective dropping and demoted to the lowest priority,
   so they die early under congestion instead of queueing in front of
   scheduled data. *)

open Ppt_engine
open Ppt_netsim
module Rd = Receiver_driven

let overcommit = 2

let rtt_segs ctx = Int.max 1 (ctx.Context.bdp / Packet.max_payload)

(* ---- sender -------------------------------------------------------- *)

type sender = {
  s : Rd.sender;
  unsched_segs : int;
  unsched_prio : int;
  aeolus : bool;
  mutable granted : int;          (* segments we may transmit *)
  mutable sched_prio : int;
  mutable last_cum_change : Units.time;
  mutable fast_attempts : int;    (* Aeolus fast-recovery backoff *)
}

(* Presume lost, and resend as scheduled packets, everything from the
   receiver's progress point up to [upto]. *)
let go_back h upto =
  let s = h.s in
  for seq = s.cum to upto - 1 do
    Context.send_data s.ctx s.flow ~loop:Packet.H ~prio:h.sched_prio
      ~ecn_capable:false ~first_rtt:false ~sel_drop:false
      ~retransmission:true seq
  done

let sender_pump h =
  let s = h.s in
  let limit = Int.min h.granted s.flow.Flow.nseg in
  while s.snd_nxt < limit do
    let first_rtt = s.snd_nxt < h.unsched_segs in
    Context.send_data s.ctx s.flow ~loop:Packet.H
      ~prio:(if first_rtt then h.unsched_prio else h.sched_prio)
      ~ecn_capable:false ~first_rtt ~sel_drop:(first_rtt && h.aeolus)
      ~retransmission:false s.snd_nxt;
    s.snd_nxt <- s.snd_nxt + 1
  done

(* Homa's loss recovery is purely timeout-based (the Aeolus-simulator
   setup the paper uses for Homa, §6.2): grants only open the window.
   Aeolus adds fast recovery: its unscheduled packets are dropped
   selectively at the switch, and the sender promptly retransmits the
   hole as scheduled (non-droppable) packets once grant progress shows
   it, instead of waiting a full RTO. *)
let sender_on_grant h ~g_cum ~g_upto ~g_prio =
  let s = h.s in
  Context.count_op s.ctx s.flow.Flow.src;
  let now = Sim.now s.ctx.Context.sim in
  if g_cum > s.cum then begin
    s.cum <- g_cum;
    h.last_cum_change <- now;
    h.fast_attempts <- 0
  end else if h.aeolus && s.cum < s.snd_nxt
           && now - h.last_cum_change
              > s.ctx.Context.base_rtt * (1 lsl Int.min 6 h.fast_attempts)
  then begin
    (* exponential backoff: duplicates of a persistent hole must not
       amplify the congestion that caused it *)
    h.last_cum_change <- now;
    h.fast_attempts <- h.fast_attempts + 1;
    go_back h (Int.min s.snd_nxt (s.cum + 8))
  end;
  h.granted <- Int.max h.granted g_upto;
  h.sched_prio <- g_prio;
  sender_pump h

(* ---- receiver ------------------------------------------------------ *)

(* SRPT with overcommitment: grant the K messages with the fewest
   remaining segments a ceiling of received + RTTsegs. [inbound] holds
   the host's inbound flows, newest first. *)
let reschedule ctx inbound =
  let rtt_segs = rtt_segs ctx in
  let remaining (f : Flow.t) = f.nseg - f.held in
  let active =
    List.filter (fun f -> remaining f > 0) inbound
    |> List.sort (fun a b -> compare (remaining a) (remaining b))
  in
  List.iteri
    (fun rank (flow : Flow.t) ->
       if rank < overcommit then begin
         let ceiling = Int.min flow.nseg (flow.held + rtt_segs) in
         let grew = ceiling > flow.granted in
         flow.granted <- Int.max flow.granted ceiling;
         (* send a grant when the window grows, and refresh it when
            progress is stuck so the sender learns [cum] *)
         if grew || flow.cum < flow.granted then begin
           let g = Rd.control flow Packet.Grant in
           Wire.set_grant g ~cum:flow.cum ~upto:flow.granted
             ~prio:(Int.min (Prio_queue.n_prios - 1) (2 + rank));
           Net.send ctx.Context.net g
         end
       end)
    active

let receiver_on_data ctx inbound (flow : Flow.t) (p : Packet.t) =
  Context.count_op ctx flow.dst;
  if not p.trimmed then begin
    Flow.accept flow p;
    if Flow.complete flow then begin
      inbound := List.filter (fun x -> x != flow) !inbound;
      Context.flow_finished ctx flow
    end;
    reschedule ctx !inbound
  end

(* ---- wiring -------------------------------------------------------- *)

let make_variant ~aeolus ctx =
  let rtt_segs = rtt_segs ctx in
  let host_inbound = Rd.per_host ctx (fun () -> ref []) in
  fun flow ->
    let unsched_segs = Int.min flow.Flow.nseg rtt_segs in
    let unsched_prio =
      if aeolus then Prio_queue.n_prios - 1
      else if flow.Flow.size <= ctx.Context.bdp then 0
      else 1
    in
    let h =
      { s = Rd.sender ctx flow; unsched_segs; unsched_prio; aeolus;
        granted = unsched_segs; sched_prio = 2;
        last_cum_change = Sim.now ctx.Context.sim; fast_attempts = 0 }
    in
    let inbound = host_inbound flow.Flow.dst in
    flow.Flow.granted <- unsched_segs;
    inbound := flow :: !inbound;
    Endpoint.connect ctx flow
      ~at_src:(fun p ->
          match p.Packet.kind with
          | Packet.Grant ->
            sender_on_grant h ~g_cum:(Wire.grant_cum p)
              ~g_upto:(Wire.grant_upto p) ~g_prio:(Wire.grant_prio p)
          | _ -> ())
      ~at_dst:(fun p ->
          match p.Packet.kind with
          | Packet.Data -> receiver_on_data ctx inbound flow p
          | _ -> ());
    (* blind first-RTT transmission at line rate *)
    sender_pump h;
    (* timeout: everything between the receiver's progress point
       and what we already sent is presumed lost *)
    Rd.backstop h.s (fun () ->
        go_back h (Int.min h.s.snd_nxt flow.Flow.nseg))

let make () = make_variant ~aeolus:false
let make_aeolus () = make_variant ~aeolus:true
