(* Classic loss-based TCP (NewReno-style), and TCP-10 [12].

   Table 1 of the paper lists TCP-10 — stock TCP with the initial
   window raised to 10 segments — among the reactive baselines that
   try to use spare bandwidth in the startup phase. This module
   provides the loss-based congestion control both build on: slow
   start / congestion avoidance, halving on fast retransmit, and a
   reset to one segment on timeout. No ECN. *)

open Ppt_netsim

let on_ack (s : _ Reliable.t) _ ~newly =
  let newly = float_of_int newly in
  if newly > 0. then begin
    let cc = s.Reliable.cc in
    let mssf = float_of_int (Reliable.mss s) in
    let cwnd = cc.Reliable.cwnd in
    cc.Reliable.cwnd <-
      (if cwnd < cc.Reliable.ssthresh then cwnd +. newly
       else cwnd +. (mssf *. newly /. cwnd));
    Reliable.commit_cwnd s
  end

(* Half the window, floored at two segments. *)
let halve_ssthresh (s : _ Reliable.t) =
  let cc = s.Reliable.cc in
  let mssf = float_of_int (Reliable.mss s) in
  cc.Reliable.ssthresh <- Float.max (2. *. mssf) (cc.Reliable.cwnd /. 2.)

let on_loss (s : _ Reliable.t) =
  halve_ssthresh s;
  let cc = s.Reliable.cc in
  cc.Reliable.cwnd <- cc.Reliable.ssthresh;
  Reliable.commit_cwnd s

let on_timeout (s : _ Reliable.t) =
  halve_ssthresh s;
  s.Reliable.cc.Reliable.cwnd <- float_of_int (Reliable.mss s);
  Reliable.commit_cwnd s

let policy =
  { Reliable.default_policy with Reliable.on_ack; on_loss; on_timeout }

let make ?(iw_segs = 3) () =
  let params =
    Reliable.default_params ~initial_cwnd:(iw_segs * Packet.max_payload)
      ~ecn_capable:false ()
  in
  Endpoint.window ~params policy ()

(* TCP with an initial window of 10 segments [12]. *)
let make_tcp10 () = make ~iw_segs:10 ()
