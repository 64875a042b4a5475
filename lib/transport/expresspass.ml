(* ExpressPass [11]: credit-scheduled, delay-bounded transport.

   The receiver controls everything: data may only be sent against a
   credit, and credits are paced at the receiver's line rate, shared
   round-robin over the active inbound flows. The sender holds its
   packets until credits arrive — the "passive, 1st RTT wasted"
   behaviour Table 1 notes — announcing itself with one credit
   request at flow start.

   Credits carry the receiver's cumulative progress so the sender can
   repair holes (credit-driven retransmission), with an RTO backstop
   for lost control packets. *)

open Ppt_netsim
module Rd = Receiver_driven

(* ---- sender -------------------------------------------------------- *)

let send_data s seq ~retransmission =
  Rd.send_data s ~prio:1 ~retransmission seq

(* The credit request announcing the flow to its receiver. *)
let request (s : Rd.sender) =
  Net.send s.ctx.Context.net
    (Packet.make ~prio:0 ~flow:s.flow.Flow.id ~src:s.flow.Flow.src
       ~dst:s.flow.Flow.dst Packet.Ctrl)

(* One credit = permission for one packet: new data first, then the
   receiver's first hole once fresh data is exhausted. *)
let sender_on_credit (s : Rd.sender) ~credit_cum =
  if not s.shut then begin
    s.cum <- Int.max s.cum credit_cum;
    if s.snd_nxt < s.flow.Flow.nseg then begin
      send_data s s.snd_nxt ~retransmission:false;
      s.snd_nxt <- s.snd_nxt + 1
    end else if s.cum < s.flow.Flow.nseg then
      send_data s s.cum ~retransmission:true
  end

(* ---- receiver-side credit pacer (per host) ---- *)

type host_state = {
  ctx : Context.t;
  active : Rd.msg list ref;   (* round-robin credit targets *)
  pacer : Rd.pacer;
}

(* Bounded outstanding credits: a message may have at most a window of
   unanswered credits ([granted] counts the credits sent). Data
   arrivals (including RTO retransmissions, which are not
   credit-gated) unlock further credits. They do not when the RTO
   resends a segment the receiver already holds: a flow that lost a
   whole window of credits then never finishes (a known defect, listed
   on ROADMAP). *)
let credit_window = 64

let wants_credit (m : Rd.msg) =
  (not m.m_done) && m.granted < m.received + credit_window

(* Credit the first eligible message and rotate it to the back. *)
let credit ctx active =
  match List.filter wants_credit !active with
  | [] -> false
  | m :: _ ->
    m.granted <- m.granted + 1;
    let p = Rd.control m.m_flow Packet.Pull in
    Wire.set_pull p ~cum:m.m_cum;
    Net.send ctx.Context.net p;
    active := List.filter (fun x -> x != m) !active @ [ m ];
    true

let receiver_on_data hs (m : Rd.msg) (p : Packet.t) =
  Context.count_op hs.ctx m.m_flow.Flow.dst;
  if (not m.m_done) && not p.trimmed then begin
    Rd.accept m p;
    if Rd.complete m then begin
      hs.active := List.filter (fun x -> x != m) !(hs.active);
      Rd.finish hs.ctx m
    end else
      (* the arrival may have re-opened the credit window *)
      Rd.kick hs.pacer
  end

(* A credit request makes the flow credit-eligible. *)
let receiver_on_request hs (m : Rd.msg) =
  if not (List.memq m !(hs.active)) && not m.m_done then begin
    hs.active := !(hs.active) @ [ m ];
    Rd.kick hs.pacer
  end

let make () ctx =
  let host_state =
    Rd.per_host ctx (fun () ->
        let active = ref [] in
        { ctx; active; pacer = Rd.pacer ctx (fun () -> credit ctx active) })
  in
  { Endpoint.t_name = "expresspass";
    t_start = (fun flow ->
        let s = Rd.sender ctx flow in
        let hs = host_state flow.Flow.dst in
        let m = Rd.message flow in
        Rd.connect s m
          ~at_src:(fun p ->
              match p.Packet.kind with
              | Packet.Pull ->
                sender_on_credit s ~credit_cum:(Wire.pull_cum p)
              | _ -> ())
          ~at_dst:(fun p ->
              match p.Packet.kind with
              | Packet.Data -> receiver_on_data hs m p
              | Packet.Ctrl -> receiver_on_request hs m
              | _ -> ());
        (* announce the flow; data waits for credits (1st RTT unused) *)
        request s;
        Rd.backstop s (fun () ->
            if s.snd_nxt = 0 then
              (* the credit request must have been lost *)
              request s
            else if s.cum < s.snd_nxt then
              send_data s s.cum ~retransmission:true)) }
