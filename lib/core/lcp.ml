(* The low-priority control loop (LCP), §3 of the paper.

   LCP rides on an HCP sender (DCTCP, or Swift/HPCC presented through
   the same policy functions) and opportunistically transmits
   segments from the tail of the send queue at low in-network priority,
   to fill the spare bandwidth the primary loop leaves behind. Its
   per-flow state is the sender's [ext]; [policy] adds its callbacks to
   the primary loop's policy.

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
  ewd : bool;
  (* false = Fig. 16 ablation: blast the initial window at line rate
     and keep the ACK-clocked rate constant instead of halving *)
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
}

type snd = t Reliable.t

let rtt (s : snd) = s.Reliable.ctx.Context.base_rtt
let now (s : snd) = Sim.now s.Reliable.ctx.Context.sim
let is_open t = t.opened
let loops_opened t = t.loops_opened

let cancel_pace (s : snd) =
  let t = s.Reliable.ext in
  Sim.cancel s.Reliable.ctx.Context.sim t.pace_ticket;
  t.pace_ticket <- -1

let cancel_watchdog (s : snd) =
  let t = s.Reliable.ext in
  Sim.cancel s.Reliable.ctx.Context.sim t.watchdog_ticket;
  t.watchdog_ticket <- -1

let shutdown (s : snd) =
  cancel_pace s;
  cancel_watchdog s

let close_loop (s : snd) =
  let t = s.Reliable.ext in
  if t.opened then begin
    t.opened <- false;
    if !Ppt_obs.Trace.enabled then
      Ppt_obs.Trace.emit (now s)
        (Ppt_obs.Event.Loop_switch
           { flow = s.Reliable.flow.Flow.id; active = false; window = 0 });
    cancel_pace s;
    cancel_watchdog s;
    (* Re-arm the case-2 detector relative to the present congestion
       level: a loop reopens once alpha drops below where it stands
       now, i.e. when spare bandwidth re-emerges. *)
    t.alpha_min <- s.Reliable.policy.Reliable.alpha s
  end

let watchdog_tick (s : snd) =
  let t = s.Reliable.ext in
  t.watchdog_ticket <- -1;
  if t.opened && not s.Reliable.shut then begin
    let idle_limit = idle_rtts * rtt s in
    if now s - t.last_activity > idle_limit then close_loop s
    else
      t.watchdog_ticket <-
        Sim.schedule s.Reliable.ctx.Context.sim ~after:(rtt s)
          t.watchdog_fire
  end

let arm_watchdog (s : snd) =
  let t = s.Reliable.ext in
  cancel_watchdog s;
  t.watchdog_ticket <-
    Sim.schedule s.Reliable.ctx.Context.sim ~after:(rtt s) t.watchdog_fire

(* Pace the remaining bytes of the initial window at I/RTT (EWD);
   without EWD the whole window goes out back-to-back, at NIC line
   rate. Window state lives in [t] (see the reusable-timers comment). *)
let rec pace_tick (s : snd) =
  let t = s.Reliable.ext in
  t.pace_ticket <- -1;
  if t.opened && not s.Reliable.shut && t.pace_remaining > 0 then begin
    let sent = Reliable.send_tail s in
    if sent > 0 then begin
      t.last_activity <- now s;
      t.pace_remaining <- t.pace_remaining - sent;
      if t.pace_remaining > 0 then begin
        if t.ewd then
          t.pace_ticket <-
            Sim.schedule s.Reliable.ctx.Context.sim
              ~after:
                (Reliable.pace_interval ~rtt:(rtt s) ~sent
                   ~window:t.pace_window)
              t.pace_fire
        else pace_tick s
      end
    end
    (* tail exhausted: stay open, the watchdog will close the loop *)
  end

let create ~ewd =
  { ewd;
    opened = false;
    alpha_min = infinity;
    last_activity = 0;
    pace_ticket = -1; watchdog_ticket = -1;
    pace_window = 0; pace_remaining = 0;
    pace_fire = ignore; watchdog_fire = ignore;
    loops_opened = 0 }

let open_loop (s : snd) ~initial_window =
  let t = s.Reliable.ext in
  if (not t.opened) && not s.Reliable.shut then begin
    let mss = Reliable.mss s in
    if initial_window >= mss then begin
      t.opened <- true;
      if !Ppt_obs.Trace.enabled then
        Ppt_obs.Trace.emit (now s)
          (Ppt_obs.Event.Loop_switch
             { flow = s.Reliable.flow.Flow.id; active = true;
               window = initial_window });
      t.loops_opened <- t.loops_opened + 1;
      t.last_activity <- now s;
      arm_watchdog s;
      t.pace_window <- initial_window;
      t.pace_remaining <- initial_window;
      pace_tick s
    end
  end

(* Case 1: spare bandwidth in the first RTTs (slow start). *)
let case1_window (s : snd) =
  Int.max 0 (s.Reliable.ctx.Context.bdp - int_of_float (Reliable.cwnd s))

(* Case 2 (Eq. 2): I = (1/2 - alpha_min) * W_max. *)
let case2_window (s : snd) ~alpha =
  int_of_float ((0.5 -. alpha) *. s.Reliable.cc.Reliable.wmax)

let on_rtt_boundary (s : snd) =
  let t = s.Reliable.ext and policy = s.Reliable.policy in
  if not s.Reliable.shut then begin
    if (not t.opened) && policy.Reliable.in_ca s then begin
      let alpha = policy.Reliable.alpha s in
      if alpha <= t.alpha_min then begin
        t.alpha_min <- alpha;
        if alpha < 0.5 then
          open_loop s ~initial_window:(case2_window s ~alpha)
      end
    end
  end

let on_lcp_ack (s : snd) p =
  let t = s.Reliable.ext in
  if not s.Reliable.shut then begin
    t.last_activity <- now s;
    if t.opened && not (Wire.ack_ece p) then begin
      (* EWD: receiver sends one ACK per two opportunistic packets, so
         one fresh packet per ACK halves the rate every RTT. Without
         EWD the rate is kept constant by sending two. *)
      let n = if t.ewd then 1 else 2 in
      for _ = 1 to n do ignore (Reliable.send_tail s) done
    end
    (* An ECE-marked low-priority ACK is ignored (§3.2): it still
       counts as loop activity but triggers no new packet. *)
  end

let case1_start s =
  if not s.Reliable.shut then
    open_loop s ~initial_window:(case1_window s)

let start (s : snd) =
  let t = s.Reliable.ext in
  t.pace_fire <- (fun () -> pace_tick s);
  t.watchdog_fire <- (fun () -> watchdog_tick s);
  (* case 1: open at flow start, or at the 2nd RTT for identified-large
     flows so that small flows own the first RTT (§3.1). The start
     fires (and counts as an event) even if the flow finished first. *)
  let delay = if s.Reliable.flow.Flow.identified_large then rtt s else 0 in
  ignore
    (Sim.schedule s.Reliable.ctx.Context.sim ~after:delay (fun () ->
         case1_start s))

(* The primary loop's policy with the LCP's callbacks: its start, its
   case-2 check after each observation window, its ACK clock and its
   shutdown. No primary loop has timers of its own, so [init] and
   [release] are the LCP's alone. *)
let policy (base : t Reliable.policy) =
  { base with
    Reliable.init = start;
    on_window = (fun s ~marked ~acked ->
        base.Reliable.on_window s ~marked ~acked;
        on_rtt_boundary s);
    on_lcp_ack;
    release = shutdown }
