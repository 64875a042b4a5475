(* Window-based reliable sender core.

   Implements everything a TCP-style datacenter sender shares:
   sequence/SACK bookkeeping, cumulative-ACK advance, duplicate-ACK
   fast retransmit with NewReno-style recovery, retransmission
   timeouts with exponential backoff, a send-buffer availability
   window, and the congestion-window gate. The congestion-control
   *policy* is injected through hook closures so DCTCP, Swift, HPCC,
   PIAS and PPT's HCP all reuse this machinery.

   PPT specifics supported here (§5):
   - a second, low-priority loop transmits tail segments through
     [send_tail], which walks one tail cursor down towards [snd_nxt];
     such segments do not consume primary-loop window and are tracked
     so the primary loop never double-counts them in flight;
   - a low-priority ACK updates the SACK scoreboard and advances
     [snd_nxt] past data the LCP already delivered in order (the
     "crossed paths" tweak of §5.2), then is handed to [hook_on_lcp_ack]
     for the EWD logic. *)

open Ppt_engine
open Ppt_netsim

let log_src =
  Logs.Src.create "ppt.reliable" ~doc:"window-based reliable sender"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One scratch record per sender, refilled for every ack (hooks run
   synchronously and none retains it) — so ack processing allocates
   nothing. All fields are therefore mutable; treat the record as
   borrowed for the duration of the hook call. *)
type ack_info = {
  mutable ai_cum : int;
  mutable ai_ece : bool;
  mutable ai_data_tx : Units.time;
  mutable ai_tel : int;
  (* id of the ack packet carrying echoed telemetry — valid only during
     the synchronous hook call; an int, so filling it is no barrier *)
  mutable ai_newly_acked : int;  (* payload bytes newly confirmed *)
  mutable ai_cum_advanced : bool;
}

(* Per-segment states. *)
let st_unsent = '\000'
let st_h_inflight = '\001'   (* sent by the primary loop, unacked *)
let st_sacked = '\002'       (* confirmed received *)
let st_lost = '\003'         (* deemed lost, queued for retransmit *)
let st_l_inflight = '\004'   (* sent by a low-priority loop, unacked *)

type params = {
  initial_cwnd : int;                   (* bytes *)
  ecn_capable : bool;
  lcp_ecn_capable : bool;               (* ECN on low-priority-loop data *)
  sendbuf_bytes : int;                  (* send-buffer capacity *)
  tagger : bytes_sent:int -> loop:Packet.loop -> int;
}

let default_params ?(initial_cwnd = 10 * Packet.max_payload)
    ?(ecn_capable = true) ?(lcp_ecn_capable = true)
    ?(sendbuf_bytes = max_int) ?(tagger = fun ~bytes_sent:_ ~loop:_ -> 0)
    () =
  { initial_cwnd; ecn_capable; lcp_ecn_capable; sendbuf_bytes; tagger }

type t = {
  ctx : Context.t;
  flow : Flow.t;
  p : params;
  mss : int;
  seg : Bytes.t;
  mutable cwnd : float;
  mutable snd_nxt : int;
  mutable cum_ack : int;
  mutable sacked_cnt : int;
  mutable inflight : int;              (* primary-loop bytes in flight *)
  mutable l_inflight_segs : int;       (* low-priority segments unacked *)
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recovery_end : int;
  retx : int Queue.t;
  mutable rto_backoff : int;
  mutable rto_fire : unit -> unit;
  (* allocated once, so re-arming the (endlessly rescheduled) RTO is
     an allocation-free schedule *)
  mutable rto_ticket : int;            (* the armed RTO, or -1 *)
  (* per-RTT observation window (DCTCP-style) *)
  mutable win_end : int;
  mutable win_acked : int;
  mutable win_marked : int;
  mutable bytes_sent : int;            (* payload bytes, both loops *)
  (* low-priority tail cursor: the next pick is strictly below [tail];
     [tail_hi] is the send-buffer horizon it was last restarted from *)
  mutable tail : int;
  mutable tail_hi : int;
  mutable shut : bool;
  scratch_ai : ack_info;               (* reused by [on_ack] *)
  (* congestion-control and PPT hooks *)
  mutable hook_on_ack : t -> ack_info -> unit;
  mutable hook_on_window : t -> f:float -> unit;
  mutable hook_on_loss : t -> unit;
  mutable hook_on_timeout : t -> unit;
  mutable hook_on_lcp_ack : t -> ack_info -> unit;
}

let cwnd t = t.cwnd

(* Every congestion-control policy funnels window changes through
   here, so this one site gives traces the full cwnd trajectory. *)
let set_cwnd t w =
  t.cwnd <- Float.max (float_of_int t.mss) w;
  if !Ppt_obs.Trace.enabled then
    Ppt_obs.Trace.emit (Sim.now t.ctx.Context.sim)
      (Ppt_obs.Event.Cwnd_update
         { flow = t.flow.Flow.id; cwnd = int_of_float t.cwnd })

let default_on_loss t = set_cwnd t (t.cwnd /. 2.)

let default_on_timeout t = set_cwnd t (float_of_int t.mss)
let mss t = t.mss
let inflight t = t.inflight
let l_inflight_segs t = t.l_inflight_segs
let bytes_sent t = t.bytes_sent
let flow t = t.flow
let ctx t = t.ctx
let all_sacked t = t.sacked_cnt = t.flow.Flow.nseg

let seg_state t seq = Bytes.get t.seg seq

(* Highest segment index currently present in the send buffer: bytes
   below [cum_ack] have been freed, so the application has copied in up
   to [cum_ack * mss + capacity] bytes. *)
let avail_hi t =
  if t.p.sendbuf_bytes = max_int then t.flow.Flow.nseg - 1
  else begin
    let bufseg = Int.max 1 (t.p.sendbuf_bytes / t.mss) in
    Int.min (t.flow.Flow.nseg - 1) (t.cum_ack + bufseg - 1)
  end

let cancel_rto t =
  Sim.cancel t.ctx.Context.sim t.rto_ticket;
  t.rto_ticket <- -1

let rto_armed t = t.rto_ticket >= 0

let shutdown t =
  t.shut <- true;
  cancel_rto t

let rto_interval t =
  t.ctx.Context.rto_min * t.rto_backoff

(* [next_seg]'s answers besides a new segment; [retx_code] is its own
   inverse. *)
let no_seg = -1
let retx_code seq = -2 - seq

(* --- transmission ------------------------------------------------- *)

let emit t ~loop ~prio_override ~seq =
  let pay = Flow.seg_payload t.flow seq in
  let prio =
    match prio_override with
    | Some p -> p
    | None -> t.p.tagger ~bytes_sent:t.bytes_sent ~loop
  in
  let ecn_capable =
    match loop with
    | Packet.H -> t.p.ecn_capable
    | Packet.L -> t.p.lcp_ecn_capable
  in
  let pkt =
    Packet.make ~seq ~payload:pay ~prio ~loop ~ecn_capable
      ~flow:t.flow.Flow.id ~src:t.flow.Flow.src ~dst:t.flow.Flow.dst
      Packet.Data
  in
  Wire.set_data pkt ~tx:(Sim.now t.ctx.Context.sim) ~first_rtt:false;
  Context.count_op t.ctx t.flow.Flow.src;
  t.bytes_sent <- t.bytes_sent + pay;
  Net.send t.ctx.Context.net pkt;
  pay

let rec arm_rto t =
  if t.rto_ticket < 0 && t.inflight > 0 && not t.shut then
    t.rto_ticket <-
      Sim.schedule t.ctx.Context.sim ~after:(rto_interval t) t.rto_fire

and reset_rto t =
  cancel_rto t;
  t.rto_backoff <- 1;
  arm_rto t

and on_rto t =
  t.rto_ticket <- -1;
  if not (t.shut || all_sacked t) then begin
    Log.debug (fun m ->
        m "flow %d: RTO at %a (backoff x%d, cum=%d/%d)" t.flow.Flow.id
          Units.pp_time (Sim.now t.ctx.Context.sim) t.rto_backoff
          t.cum_ack t.flow.Flow.nseg);
    Context.count_op t.ctx t.flow.Flow.src;
    if !Ppt_obs.Trace.enabled then
      Ppt_obs.Trace.emit (Sim.now t.ctx.Context.sim)
        (Ppt_obs.Event.Rto_fire
           { flow = t.flow.Flow.id; backoff = t.rto_backoff });
    (* every in-flight primary segment is presumed lost *)
    for seq = 0 to t.flow.Flow.nseg - 1 do
      if Bytes.get t.seg seq = st_h_inflight then begin
        Bytes.set t.seg seq st_lost;
        Queue.push seq t.retx
      end
    done;
    t.inflight <- 0;
    t.dup_acks <- 0;
    t.in_recovery <- false;
    t.hook_on_timeout t;
    t.rto_backoff <- Int.min 64 (t.rto_backoff * 2);
    try_send t;
    arm_rto t
  end

and send_segment t ~loop ?prio_override seq =
  let st = Bytes.get t.seg seq in
  assert (st <> st_sacked);
  let retransmission = st = st_lost in
  begin match loop with
    | Packet.H ->
      if st <> st_h_inflight then begin
        let pay = Flow.seg_payload t.flow seq in
        t.inflight <- t.inflight + pay
      end;
      if st = st_l_inflight then
        t.l_inflight_segs <- Int.max 0 (t.l_inflight_segs - 1);
      Bytes.set t.seg seq st_h_inflight
    | Packet.L ->
      if st = st_unsent then begin
        Bytes.set t.seg seq st_l_inflight;
        t.l_inflight_segs <- t.l_inflight_segs + 1
      end
  end;
  let pay = emit t ~loop ~prio_override ~seq in
  begin match loop with
    | Packet.H ->
      t.flow.Flow.hcp_payload <- t.flow.Flow.hcp_payload + pay
    | Packet.L ->
      t.flow.Flow.lcp_payload <- t.flow.Flow.lcp_payload + pay
  end;
  if retransmission then begin
    t.flow.Flow.retrans <- t.flow.Flow.retrans + 1;
    if !Ppt_obs.Trace.enabled then
      Ppt_obs.Trace.emit (Sim.now t.ctx.Context.sim)
        (Ppt_obs.Event.Retransmit
           { flow = t.flow.Flow.id; seq;
             loop = (match loop with Packet.H -> 'H' | Packet.L -> 'L') })
  end;
  arm_rto t

(* Next primary-loop segment: queued retransmissions first, then new
   data up to the send-buffer horizon, skipping delivered segments.
   The answer is one int, so asking allocates nothing: [no_seg], a new
   segment [s >= 0], or the retransmission [retx_code s] of [s]. *)
and next_seg t =
  if not (Queue.is_empty t.retx) then begin
    let seq = Queue.peek t.retx in
    if Bytes.get t.seg seq = st_lost then retx_code seq
    else begin ignore (Queue.pop t.retx); next_seg t end
  end else begin
    (* a loop, not a local recursive function: that would be a closure
       allocated on every call *)
    let hi = avail_hi t in
    while t.snd_nxt <= hi && Bytes.get t.seg t.snd_nxt = st_sacked do
      t.snd_nxt <- t.snd_nxt + 1
    done;
    if t.snd_nxt > hi then no_seg else t.snd_nxt
  end

and try_send t =
  if not (t.shut || all_sacked t) then begin
    let code = next_seg t in
    if code <> no_seg && float_of_int t.inflight < t.cwnd then begin
      let retx = code < no_seg in
      let seq = if retx then retx_code code else code in
      if retx then ignore (Queue.pop t.retx)
      else t.snd_nxt <- Int.max t.snd_nxt (seq + 1);
      send_segment t ~loop:Packet.H ?prio_override:None seq;
      if t.win_end = 0 then t.win_end <- t.snd_nxt;
      try_send t
    end
  end

let create ctx flow p =
  let t =
    { ctx; flow; p; mss = Packet.max_payload;
      seg = Bytes.make flow.Flow.nseg st_unsent;
      cwnd = float_of_int p.initial_cwnd;
      snd_nxt = 0; cum_ack = 0; sacked_cnt = 0; inflight = 0;
      l_inflight_segs = 0;
      dup_acks = 0; in_recovery = false; recovery_end = 0;
      retx = Queue.create (); rto_backoff = 1; rto_fire = ignore;
      rto_ticket = -1;
      win_end = 0; win_acked = 0; win_marked = 0; bytes_sent = 0;
      tail = flow.Flow.nseg; tail_hi = -1; shut = false;
      scratch_ai =
        { ai_cum = 0; ai_ece = false; ai_data_tx = 0;
          ai_tel = -1; ai_newly_acked = 0;
          ai_cum_advanced = false };
      hook_on_ack = (fun _ _ -> ());
      hook_on_window = (fun _ ~f:_ -> ());
      hook_on_loss = default_on_loss;
      hook_on_timeout = default_on_timeout;
      hook_on_lcp_ack = (fun _ _ -> ()) }
  in
  t.tail_hi <- avail_hi t;
  t.rto_fire <- (fun () -> on_rto t);
  t

let start t =
  if not t.shut then begin
    try_send t;
    t.win_end <- Int.max t.win_end t.snd_nxt
  end

(* --- low-priority (opportunistic) transmission --------------------- *)

let send_lcp_segment ?prio t seq =
  if not (t.shut || Bytes.get t.seg seq = st_sacked) then
    send_segment t ~loop:Packet.L ?prio_override:prio seq

(* Send the highest untransmitted segment below the cursor, within
   the send buffer and at or above [snd_nxt]; the cursor moves to it.
   Returns its payload, or 0 once the two loops have met. *)
let send_tail ?prio t =
  let seq = ref (Int.min (avail_hi t) (t.tail - 1)) in
  while !seq >= t.snd_nxt && Bytes.get t.seg !seq <> st_unsent do
    decr seq
  done;
  if !seq < t.snd_nxt then 0
  else begin
    t.tail <- !seq;
    send_lcp_segment ?prio t !seq;
    Flow.seg_payload t.flow !seq
  end

(* --- acknowledgement processing ------------------------------------ *)

let mark_sacked t seq =
  if seq < 0 || seq >= t.flow.Flow.nseg then 0
  else begin
    let st = Bytes.get t.seg seq in
    if st = st_sacked then 0
    else begin
      let pay = Flow.seg_payload t.flow seq in
      Bytes.set t.seg seq st_sacked;
      t.sacked_cnt <- t.sacked_cnt + 1;
      if st = st_h_inflight then begin
        t.inflight <- Int.max 0 (t.inflight - pay);
        pay
      end else begin
        (* delivered by the low-priority loop (or while presumed lost):
           it never gates the primary window, so it does not feed
           primary-loop congestion accounting *)
        if st = st_l_inflight then
          t.l_inflight_segs <- Int.max 0 (t.l_inflight_segs - 1);
        0
      end
    end
  end

let advance_cum t cum =
  let advanced = cum > t.cum_ack in
  if advanced then begin
    (* anything below the new cumulative point is delivered *)
    for seq = t.cum_ack to cum - 1 do ignore (mark_sacked t seq) done;
    t.cum_ack <- cum;
    (* §5.2: the LCP loop may deliver in-order data past snd_nxt; let
       TCP continue as usual by advancing the head of the send queue. *)
    if t.cum_ack > t.snd_nxt then t.snd_nxt <- t.cum_ack;
    (* newly buffered data sits above the tail cursor: restart the
       cursor from the new horizon *)
    let hi = avail_hi t in
    if hi > t.tail_hi then begin
      t.tail_hi <- hi;
      if t.tail <= hi then t.tail <- hi + 1
    end
  end;
  advanced

let enter_recovery t =
  Log.debug (fun m ->
      m "flow %d: fast-retransmit recovery at seg %d" t.flow.Flow.id
        t.cum_ack);
  t.in_recovery <- true;
  t.recovery_end <- t.snd_nxt;
  t.hook_on_loss t;
  (* retransmit the hole at the cumulative point *)
  if t.cum_ack < t.flow.Flow.nseg
  && Bytes.get t.seg t.cum_ack = st_h_inflight then begin
    let pay = Flow.seg_payload t.flow t.cum_ack in
    Bytes.set t.seg t.cum_ack st_lost;
    t.inflight <- Int.max 0 (t.inflight - pay);
    Queue.push t.cum_ack t.retx
  end

let on_ack t (p : Packet.t) =
  if not t.shut then begin
    let cum = Wire.ack_cum p and ece = Wire.ack_ece p in
    Context.count_op t.ctx t.flow.Flow.src;
    let newly = mark_sacked t (Wire.ack_sack0 p) in
    let newly = newly + mark_sacked t (Wire.ack_sack1 p) in
    let advanced = advance_cum t cum in
    let ai = t.scratch_ai in
    ai.ai_cum <- cum;
    ai.ai_ece <- ece;
    ai.ai_data_tx <- Wire.ack_data_tx p;
    ai.ai_tel <- p.id;
    ai.ai_newly_acked <- newly;
    ai.ai_cum_advanced <- advanced;
    (match p.loop with
     | Packet.L ->
       (* EWD and loop bookkeeping live in the PPT core. *)
       t.hook_on_lcp_ack t ai;
       try_send t
     | Packet.H ->
       if advanced then begin
         t.dup_acks <- 0;
         reset_rto t;
         if t.in_recovery then begin
           if t.cum_ack >= t.recovery_end then t.in_recovery <- false
           else if t.cum_ack < t.flow.Flow.nseg
                && Bytes.get t.seg t.cum_ack = st_h_inflight then begin
             (* partial ack: the next hole is also lost *)
             let pay = Flow.seg_payload t.flow t.cum_ack in
             Bytes.set t.seg t.cum_ack st_lost;
             t.inflight <- Int.max 0 (t.inflight - pay);
             Queue.push t.cum_ack t.retx
           end
         end
       end else if newly > 0 && cum = t.cum_ack
                && t.cum_ack < t.flow.Flow.nseg then begin
         (* out-of-order delivery above a hole *)
         t.dup_acks <- t.dup_acks + 1;
         if t.dup_acks = 3 && not t.in_recovery then enter_recovery t
       end;
       (* DCTCP-style per-window observation *)
       t.win_acked <- t.win_acked + newly;
       if ece then t.win_marked <- t.win_marked + newly;
       t.hook_on_ack t ai;
       if t.cum_ack >= t.win_end && t.win_acked > 0 then begin
         let f =
           float_of_int t.win_marked /. float_of_int t.win_acked
         in
         t.hook_on_window t ~f;
         t.win_end <- Int.max t.snd_nxt (t.cum_ack + 1);
         t.win_acked <- 0;
         t.win_marked <- 0
       end;
       try_send t);
    if all_sacked t then cancel_rto t
  end
