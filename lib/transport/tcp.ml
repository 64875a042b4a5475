(* Classic loss-based TCP (NewReno-style), and TCP-10 [12].

   Table 1 of the paper lists TCP-10 — stock TCP with the initial
   window raised to 10 segments — among the reactive baselines that
   try to use spare bandwidth in the startup phase. This module
   provides the loss-based congestion control both build on: slow
   start / congestion avoidance, halving on fast retransmit, and a
   reset to one segment on timeout. No ECN. *)

open Ppt_netsim

let attach (s : Reliable.t) =
  let ssthresh = ref infinity in
  let mssf = float_of_int (Reliable.mss s) in
  s.Reliable.hook_on_ack <- (fun s ai ->
      let newly = float_of_int ai.Reliable.ai_newly_acked in
      if newly > 0. then begin
        let cwnd = Reliable.cwnd s in
        if cwnd < !ssthresh then Reliable.set_cwnd s (cwnd +. newly)
        else Reliable.set_cwnd s (cwnd +. (mssf *. newly /. cwnd))
      end);
  s.Reliable.hook_on_loss <- (fun s ->
      ssthresh := Float.max (2. *. mssf) (Reliable.cwnd s /. 2.);
      Reliable.set_cwnd s !ssthresh);
  s.Reliable.hook_on_timeout <- (fun s ->
      ssthresh := Float.max (2. *. mssf) (Reliable.cwnd s /. 2.);
      Reliable.set_cwnd s mssf)

let make ?(iw_segs = 3) () =
  let params =
    Reliable.default_params ~initial_cwnd:(iw_segs * Packet.max_payload)
      ~ecn_capable:false ()
  in
  Endpoint.window ~params (fun snd -> attach snd; fun () -> ())

(* TCP with an initial window of 10 segments [12]. *)
let make_tcp10 () = make ~iw_segs:10 ()
