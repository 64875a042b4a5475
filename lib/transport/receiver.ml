(* Generic receiver endpoint for window-based transports (DCTCP, PIAS,
   Swift, HPCC, RC3 and PPT's HCP/LCP loops).

   It tracks which segments have arrived, acknowledges every data
   packet (cumulative ACK + the specific segment as a SACK, echoing the
   CE bit, the sender timestamp and any inband telemetry), and fires a
   completion callback when the whole flow has been received.

   Primary-loop acks travel at P0. Low-priority-loop (LCP) data is
   acknowledged separately, at the priority of the last LCP packet:
   one low-priority ACK per [lcp_batch] opportunistic packets. With
   [lcp_batch = 2] this implements PPT's exponential window decrease —
   the sender's opportunistic rate naturally halves every RTT (§3.2). *)

open Ppt_netsim

type t = {
  ctx : Context.t;
  flow : Flow.t;
  lcp_batch : int;                      (* LCP data packets per LCP ack *)
  bitmap : Bytes.t;
  mutable received : int;
  mutable cum : int;                    (* in-order segments from 0 *)
  mutable lcp_pending : int;            (* LCP data since last LCP ack *)
  mutable lcp_sack0 : int;              (* latest LCP segment, or none *)
  mutable lcp_sack1 : int;              (* the one before it, or none *)
  mutable lcp_ece : bool;
  mutable lcp_last_prio : int;
  mutable done_fired : bool;
  mutable on_done : unit -> unit;
}

(* An ack holds at most two SACKs, so at most two LCP packets share
   one. *)
let create ?(lcp_batch = 1) ctx flow =
  if lcp_batch < 1 || lcp_batch > 2 then
    invalid_arg
      (Printf.sprintf "Receiver.create: lcp_batch %d outside 1..2" lcp_batch);
  { ctx; flow; lcp_batch;
    bitmap = Bytes.make flow.Flow.nseg '\000';
    received = 0; cum = 0;
    lcp_pending = 0; lcp_sack0 = Wire.no_sack; lcp_sack1 = Wire.no_sack;
    lcp_ece = false; lcp_last_prio = 7;
    done_fired = false; on_done = ignore }

let complete t = t.received = t.flow.Flow.nseg
let received t = t.received
let cum t = t.cum

let mark t seq =
  if seq < 0 || seq >= t.flow.Flow.nseg then false
  else if Bytes.get t.bitmap seq = '\001' then false
  else begin
    Bytes.set t.bitmap seq '\001';
    t.received <- t.received + 1;
    while t.cum < t.flow.Flow.nseg && Bytes.get t.bitmap t.cum = '\001' do
      t.cum <- t.cum + 1
    done;
    true
  end

(* [tel_from] echoes the data packet's inband telemetry: it is copied
   into the ack packet's own snapshot buffer (the data packet is
   released by the fabric as soon as [on_data] returns). A fresh
   packet's snapshot is empty, so a data packet without telemetry
   needs no copy; [Packet.dummy] has none. *)
let send_ack t ~tel_from ~sack0 ~sack1 ~ece ~data_tx ~loop ~prio =
  let pkt =
    Packet.make ~prio ~loop ~flow:t.flow.Flow.id
      ~src:t.flow.Flow.dst ~dst:t.flow.Flow.src Packet.Ack
  in
  Wire.set_ack pkt ~cum:t.cum ~sack0 ~sack1 ~ece ~data_tx;
  if tel_from.Packet.tel_n > 0 then Packet.tel_copy ~src:tel_from ~dst:pkt;
  Net.send t.ctx.Context.net pkt

let fire_done t =
  if (not t.done_fired) && complete t then begin
    t.done_fired <- true;
    Context.flow_finished t.ctx t.flow;
    t.on_done ()
  end

let flush_lcp t =
  if t.lcp_pending > 0 then begin
    send_ack t ~tel_from:Packet.dummy ~sack0:t.lcp_sack0
      ~sack1:t.lcp_sack1 ~ece:t.lcp_ece ~data_tx:0 ~loop:Packet.L
      ~prio:t.lcp_last_prio;
    t.lcp_pending <- 0;
    t.lcp_sack0 <- Wire.no_sack;
    t.lcp_sack1 <- Wire.no_sack;
    t.lcp_ece <- false
  end

(* Trimmed data carries no payload: it only tells receiver-driven
   transports that the segment was cut. Window-based receivers ignore
   it here (their loss recovery is SACK/RTO based). *)
let on_data t (p : Packet.t) =
  Context.count_op t.ctx t.flow.Flow.dst;
  if not p.trimmed then begin
    let newly = mark t p.seq in
    if newly then begin
      match p.loop with
      | Packet.H ->
        t.flow.Flow.hcp_delivered <- t.flow.Flow.hcp_delivered + p.payload
      | Packet.L ->
        t.flow.Flow.lcp_delivered <- t.flow.Flow.lcp_delivered + p.payload
    end;
    match p.loop with
    | Packet.H ->
      send_ack t ~tel_from:p ~sack0:p.seq ~sack1:Wire.no_sack
        ~ece:p.ecn_ce ~data_tx:(Wire.data_tx p) ~loop:Packet.H ~prio:0;
      fire_done t
    | Packet.L ->
      t.lcp_pending <- t.lcp_pending + 1;
      t.lcp_sack1 <- t.lcp_sack0;
      t.lcp_sack0 <- p.seq;
      t.lcp_ece <- t.lcp_ece || p.ecn_ce;
      t.lcp_last_prio <- p.prio;
      if t.lcp_pending >= t.lcp_batch then flush_lcp t;
      (* Completion must not wait for a batch partner that will never
         arrive: if this LCP packet finished the flow, ack and finish
         immediately. *)
      if complete t then begin flush_lcp t; fire_done t end
  end
