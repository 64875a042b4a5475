(* NDP [15]: receiver-driven transport with packet trimming.

   Senders blast a full initial window (one BDP) at line rate. When a
   switch queue overflows, the queue discipline trims the payload and
   forwards the header at top priority ([Prio_queue.config.trim] must
   be on for NDP runs). The receiver:
   - NACKs every trimmed header so the sender queues the segment for
     retransmission;
   - clocks the remainder of the transfer with PULL packets paced at
     its link rate, shared round-robin across all inbound flows.

   A pull carries the receiver's cumulative progress so the sender can
   fall back to timeout retransmission if control packets die. *)

open Ppt_netsim
module Rd = Receiver_driven

(* ---- sender -------------------------------------------------------- *)

(* Data rides at P1, below the P0 control packets. *)
let send_data (s : Rd.sender) seq ~retransmission =
  Context.send_data s.ctx s.flow ~loop:Packet.H ~prio:1 ~ecn_capable:false
    ~first_rtt:false ~sel_drop:false ~retransmission seq

(* One pull = one packet's worth of credit: a NACKed segment first,
   then new data. *)
let sender_on_pull (s : Rd.sender) retx ~p_cum =
  s.cum <- Int.max s.cum p_cum;
  match Queue.take_opt retx with
  | Some seq -> send_data s seq ~retransmission:true
  | None ->
    if s.snd_nxt < s.flow.Flow.nseg then begin
      send_data s s.snd_nxt ~retransmission:false;
      s.snd_nxt <- s.snd_nxt + 1
    end

(* ---- receiver: per-host pull pacer --------------------------------- *)

type host_state = {
  ctx : Context.t;
  pulls : Flow.t Queue.t;   (* round-robin pull tokens *)
  pacer : Rd.pacer;
}

(* Send the next pull token's pull, skipping finished flows. *)
let rec pull ctx pulls =
  match Queue.take_opt pulls with
  | None -> false
  | Some flow when Flow.is_finished flow -> pull ctx pulls
  | Some flow ->
    let p = Rd.control flow Packet.Pull in
    Wire.set_pull p ~cum:flow.Flow.cum;
    Net.send ctx.Context.net p;
    true

let enqueue_pull hs flow =
  Queue.push flow hs.pulls;
  Rd.kick hs.pacer

(* A handler runs only for a live flow: finishing it unregisters both
   handlers. *)
let receiver_on_data hs (flow : Flow.t) (p : Packet.t) =
  Context.count_op hs.ctx flow.dst;
  if p.trimmed then begin
    (* header survived: fast loss notification + keep the clock going *)
    let nack = Rd.control flow Packet.Nack in
    Wire.set_nack nack ~seq:p.seq;
    Net.send hs.ctx.Context.net nack;
    enqueue_pull hs flow
  end else begin
    Flow.accept flow p;
    if Flow.complete flow then Context.flow_finished hs.ctx flow
    else enqueue_pull hs flow
  end

(* ---- wiring -------------------------------------------------------- *)

let make () ctx =
  let iw_segs = Int.max 1 (ctx.Context.bdp / Packet.max_payload) in
  let host_state =
    Rd.per_host ctx (fun () ->
        let pulls = Queue.create () in
        { ctx; pulls; pacer = Rd.pacer ctx (fun () -> pull ctx pulls) })
  in
  fun flow ->
    let s = Rd.sender ctx flow in
    let retx = Queue.create () in
    let hs = host_state flow.Flow.dst in
    Endpoint.connect ctx flow
      ~at_src:(fun p ->
          match p.Packet.kind with
          | Packet.Pull -> sender_on_pull s retx ~p_cum:(Wire.pull_cum p)
          | Packet.Nack -> Queue.push (Wire.nack_seq p) retx
          | _ -> ())
      ~at_dst:(fun p ->
          match p.Packet.kind with
          | Packet.Data -> receiver_on_data hs flow p
          | _ -> ());
    (* first window at line rate *)
    let burst = Int.min iw_segs flow.Flow.nseg in
    for seq = 0 to burst - 1 do
      send_data s seq ~retransmission:false
    done;
    s.snd_nxt <- burst;
    (* resend the first segment the receiver is missing *)
    Rd.backstop s (fun () ->
        if s.cum < flow.Flow.nseg && s.cum < s.snd_nxt then
          send_data s s.cum ~retransmission:true)
