(* Delay-based congestion control, conceptually equivalent to
   Swift [21] (§6.2 "working with delay-based transport").

   The sender measures the fabric RTT from a timestamp echoed in every
   ACK. Below the target delay the window grows additively; above it,
   the window shrinks multiplicatively in proportion to the excess,
   at most once per RTT and bounded by [max_mdf]. As in the paper's
   ns-3 variant, only fabric delay is modelled (no host queues). *)

open Ppt_engine

let target_factor = 1.5   (* target delay = factor * base RTT *)
let ai_segs = 1.0         (* additive increase per RTT, in segments *)
let beta = 0.8            (* multiplicative decrease gain *)
let max_mdf = 0.5         (* largest decrease in one RTT *)

let target (ctx : Context.t) =
  int_of_float (target_factor *. float_of_int ctx.Context.base_rtt)

(* The last measured delay sits in the sender's [delay], the last
   decrease's time in its [epoch]. *)
let on_ack (s : _ Reliable.t) p ~newly =
  let data_tx = Wire.ack_data_tx p in
  if newly > 0 && data_tx > 0 then begin
    let ctx = s.Reliable.ctx in
    let now = Sim.now ctx.Context.sim in
    let delay = now - data_tx in
    let target = target ctx in
    s.Reliable.delay <- delay;
    let cc = s.Reliable.cc in
    let cwnd = cc.Reliable.cwnd in
    if delay < target then begin
      (* additive increase, spread over the acks of one window *)
      let mssf = float_of_int (Reliable.mss s) in
      let newly = float_of_int newly in
      cc.Reliable.cwnd <- cwnd +. (ai_segs *. mssf *. newly /. cwnd);
      Reliable.commit_cwnd s
    end else if now - s.Reliable.epoch > ctx.Context.base_rtt then begin
      s.Reliable.epoch <- now;
      let excess = float_of_int (delay - target) /. float_of_int delay in
      let factor = Float.max (1. -. (beta *. excess)) (1. -. max_mdf) in
      cc.Reliable.cwnd <- cwnd *. factor;
      Reliable.commit_cwnd s
    end
  end

let spare (s : _ Reliable.t) = s.Reliable.delay < target s.Reliable.ctx

(* Halving on loss and one segment on timeout are the defaults'. *)
let policy = { Reliable.default_policy with Reliable.on_ack }

let make () =
  Endpoint.window ~params:(Reliable.default_params ~ecn_capable:false ())
    policy ()
