(* The low-priority control loop (LCP), §3 of the paper.

   LCP rides on an HCP sender (DCTCP, or Swift/HPCC presented through
   the same {!Dctcp.view}) and opportunistically transmits
   segments from the tail of the send queue at low in-network priority,
   to fill the spare bandwidth the primary loop leaves behind.

   Intermittent loop initialization (§3.1):
   - case 1 (startup): a loop opens when the flow starts — delayed to
     the 2nd RTT for flows identified as large — with initial window
     I = BDP - IW(DCTCP);
   - case 2 (queue build-up): after the startup phase, a loop opens
     whenever DCTCP's alpha reaches a minimum over the past RTTs, with
     I = (1/2 - alpha_min) * W_max                    (Eq. 2).

   Exponential window decreasing (§3.2):
   - the initial window is paced out at I/RTT;
   - the receiver returns one low-priority ACK per two opportunistic
     packets, so the ACK-clocked sending rate halves every RTT;
   - an ECN-marked (ECE) low-priority ACK is ignored: no new
     opportunistic packet is triggered;
   - the loop terminates after 2 RTTs without low-priority ACKs, and
     the sender resumes watching for spare bandwidth. *)

open Ppt_engine
open Ppt_transport

let idle_rtts = 2   (* loop termination threshold *)

type t = {
  ctx : Context.t;
  snd : Reliable.t;
  view : Dctcp.view;
  ewd : bool;
  (* false = Fig. 16 ablation: blast the initial window at line rate
     and keep the ACK-clocked rate constant instead of halving *)
  identified_large : bool;
  mutable opened : bool;
  mutable alpha_min : float;
  mutable last_activity : Units.time;
  mutable pace_ticket : int;       (* armed pacer, or -1 *)
  mutable watchdog_ticket : int;   (* armed watchdog, or -1 *)
  (* reusable timers: the pacer's window state lives here and the
     fire closures are allocated once per flow, so every reschedule of
     the (per-segment) EWD pacer is allocation-free *)
  mutable pace_window : int;
  mutable pace_remaining : int;
  mutable pace_fire : unit -> unit;
  mutable watchdog_fire : unit -> unit;
  mutable loops_opened : int;      (* diagnostics *)
  mutable shut : bool;
}

let rtt t = t.ctx.Context.base_rtt
let now t = Sim.now t.ctx.Context.sim
let is_open t = t.opened
let loops_opened t = t.loops_opened

let cancel_pace t =
  Sim.cancel t.ctx.Context.sim t.pace_ticket;
  t.pace_ticket <- -1

let cancel_watchdog t =
  Sim.cancel t.ctx.Context.sim t.watchdog_ticket;
  t.watchdog_ticket <- -1

let shutdown t =
  t.shut <- true;
  cancel_pace t;
  cancel_watchdog t

let close_loop t =
  if t.opened then begin
    t.opened <- false;
    if !Ppt_obs.Trace.enabled then
      Ppt_obs.Trace.emit (now t)
        (Ppt_obs.Event.Loop_switch
           { flow = (Reliable.flow t.snd).Flow.id; active = false;
             window = 0 });
    cancel_pace t;
    cancel_watchdog t;
    (* Re-arm the case-2 detector relative to the present congestion
       level: a loop reopens once alpha drops below where it stands
       now, i.e. when spare bandwidth re-emerges. *)
    t.alpha_min <- t.view.Dctcp.alpha ()
  end

let watchdog_tick t =
  t.watchdog_ticket <- -1;
  if t.opened && not t.shut then begin
    let idle_limit = idle_rtts * rtt t in
    if now t - t.last_activity > idle_limit then close_loop t
    else
      t.watchdog_ticket <-
        Sim.schedule t.ctx.Context.sim ~after:(rtt t) t.watchdog_fire
  end

let arm_watchdog t =
  cancel_watchdog t;
  t.watchdog_ticket <-
    Sim.schedule t.ctx.Context.sim ~after:(rtt t) t.watchdog_fire

(* Inter-segment gap that spreads [window] bytes evenly over one RTT:
   rtt * sent / window, rounded to nearest. Truncating instead (the
   old behaviour) paced every segment a fraction of a tick early, and
   the error compounded across a window — enough to shift timelines. *)
let pace_interval ~rtt ~sent ~window =
  let exact =
    float_of_int rtt *. float_of_int sent /. float_of_int window
  in
  Int.max 1 (int_of_float (Float.round exact))

(* Pace the remaining bytes of the initial window at I/RTT (EWD);
   without EWD the whole window goes out back-to-back, at NIC line
   rate. Window state lives in [t] (see the reusable-timers comment). *)
let rec pace_tick t =
  t.pace_ticket <- -1;
  if t.opened && not t.shut && t.pace_remaining > 0 then begin
    let sent = Reliable.send_tail t.snd in
    if sent > 0 then begin
      t.last_activity <- now t;
      t.pace_remaining <- t.pace_remaining - sent;
      if t.pace_remaining > 0 then begin
        if t.ewd then begin
          let interval =
            pace_interval ~rtt:(rtt t) ~sent ~window:t.pace_window
          in
          t.pace_ticket <-
            Sim.schedule t.ctx.Context.sim ~after:interval t.pace_fire
        end else
          pace_tick t
      end
    end
    (* tail exhausted: stay open, the watchdog will close the loop *)
  end

let create ctx snd view ?(ewd = true) ~identified_large () =
  let t =
    { ctx; snd; view; ewd; identified_large;
      opened = false;
      alpha_min = infinity;
      last_activity = 0;
      pace_ticket = -1; watchdog_ticket = -1;
      pace_window = 0; pace_remaining = 0;
      pace_fire = ignore; watchdog_fire = ignore;
      loops_opened = 0; shut = false }
  in
  t.pace_fire <- (fun () -> pace_tick t);
  t.watchdog_fire <- (fun () -> watchdog_tick t);
  t

let open_loop t ~initial_window =
  if (not t.opened) && not t.shut then begin
    let mss = Reliable.mss t.snd in
    if initial_window >= mss then begin
      t.opened <- true;
      if !Ppt_obs.Trace.enabled then
        Ppt_obs.Trace.emit (now t)
          (Ppt_obs.Event.Loop_switch
             { flow = (Reliable.flow t.snd).Flow.id; active = true;
               window = initial_window });
      t.loops_opened <- t.loops_opened + 1;
      t.last_activity <- now t;
      arm_watchdog t;
      t.pace_window <- initial_window;
      t.pace_remaining <- initial_window;
      pace_tick t
    end
  end

(* Case 1: spare bandwidth in the first RTTs (slow start). *)
let case1_window t =
  Int.max 0 (t.ctx.Context.bdp - int_of_float (Reliable.cwnd t.snd))

(* Case 2 (Eq. 2): I = (1/2 - alpha_min) * W_max. *)
let case2_window t ~alpha =
  let wmax = t.view.Dctcp.wmax () in
  int_of_float ((0.5 -. alpha) *. wmax)

let on_rtt_boundary t =
  if not t.shut then begin
    if (not t.opened) && t.view.Dctcp.in_ca () then begin
      let alpha = t.view.Dctcp.alpha () in
      if alpha <= t.alpha_min then begin
        t.alpha_min <- alpha;
        if alpha < 0.5 then
          open_loop t ~initial_window:(case2_window t ~alpha)
      end
    end
  end

let on_lcp_ack t (ai : Reliable.ack_info) =
  if not t.shut then begin
    t.last_activity <- now t;
    if t.opened && not ai.Reliable.ai_ece then begin
      (* EWD: receiver sends one ACK per two opportunistic packets, so
         one fresh packet per ACK halves the rate every RTT. Without
         EWD the rate is kept constant by sending two. *)
      let n = if t.ewd then 1 else 2 in
      for _ = 1 to n do ignore (Reliable.send_tail t.snd) done
    end
    (* An ECE-marked low-priority ACK is ignored (§3.2): it still
       counts as loop activity but triggers no new packet. *)
  end

let case1_start t =
  if not t.shut then open_loop t ~initial_window:(case1_window t)

let start t =
  (* install hooks on the sender and the HCP view *)
  t.snd.Reliable.hook_on_lcp_ack <- (fun _ ai -> on_lcp_ack t ai);
  t.view.Dctcp.rtt_hook (fun () -> on_rtt_boundary t);
  (* case 1: open at flow start, or at the 2nd RTT for identified-large
     flows so that small flows own the first RTT (§3.1). The start
     fires (and counts as an event) even if the flow finished first. *)
  let delay = if t.identified_large then rtt t else 0 in
  ignore
    (Sim.schedule t.ctx.Context.sim ~after:delay (fun () -> case1_start t))
