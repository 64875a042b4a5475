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

let attach ctx (s : Reliable.t) =
  let target =
    int_of_float (target_factor *. float_of_int ctx.Context.base_rtt)
  in
  let mssf = float_of_int (Reliable.mss s) in
  let last_decrease = ref 0 in
  let last_delay = ref 0 in
  s.Reliable.hook_on_ack <- (fun s ai ->
      if ai.Reliable.ai_newly_acked > 0 && ai.Reliable.ai_data_tx > 0 then begin
        let now = Sim.now ctx.Context.sim in
        let delay = now - ai.Reliable.ai_data_tx in
        last_delay := delay;
        let cwnd = Reliable.cwnd s in
        if delay < target then begin
          (* additive increase, spread over the acks of one window *)
          let newly = float_of_int ai.Reliable.ai_newly_acked in
          Reliable.set_cwnd s
            (cwnd +. (ai_segs *. mssf *. newly /. cwnd))
        end else if now - !last_decrease > ctx.Context.base_rtt then begin
          last_decrease := now;
          let excess =
            float_of_int (delay - target) /. float_of_int delay
          in
          let factor =
            Float.max (1. -. (beta *. excess)) (1. -. max_mdf)
          in
          Reliable.set_cwnd s (cwnd *. factor)
        end
      end);
  s.Reliable.hook_on_loss <- (fun s ->
      Reliable.set_cwnd s (Reliable.cwnd s /. 2.));
  s.Reliable.hook_on_timeout <- (fun s -> Reliable.set_cwnd s mssf);
  fun () -> !last_delay < target

let make () =
  Endpoint.window ~params:(Reliable.default_params ~ecn_capable:false ())
    (fun snd ->
       ignore (attach snd.Reliable.ctx snd : unit -> bool);
       fun () -> ())
