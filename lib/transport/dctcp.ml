(* DCTCP congestion control [5], the paper's HCP and primary baseline.

   The sender estimates the fraction of ECN-marked bytes with
       alpha <- (1 - g) * alpha + g * F        (Eq. 1 of the paper)
   once per window of data and, in a window that saw any mark, cuts
       cwnd <- cwnd * (1 - alpha / 2).
   Growth is standard slow start / congestion avoidance.

   [policy] keeps its state in the sender's flat [cc] record (alpha,
   ssthresh and W_max, the largest congestion-avoidance window) and the
   [cwr] flag, where PPT's LCP reads it through the policy: the
   dctcp_get_info analogue of §5.1. *)

let g = 1. /. 16.   (* the EWMA gain *)

let on_ack (s : _ Reliable.t) p ~newly =
  let cc = s.Reliable.cc in
  if newly > 0 then begin
    let mssf = float_of_int (Reliable.mss s) in
    let newly = float_of_int newly in
    let cwnd = cc.Reliable.cwnd in
    cc.Reliable.cwnd <-
      (if cwnd < cc.Reliable.ssthresh then cwnd +. newly
       else cwnd +. (mssf *. newly /. cwnd));
    Reliable.commit_cwnd s
  end;
  (* React to the first congestion echo of each window immediately
     (Linux CWR behaviour): one alpha-proportional cut per window. *)
  if Wire.ack_ece p && not s.Reliable.cwr then begin
    s.Reliable.cwr <- true;
    cc.Reliable.cwnd <- cc.Reliable.cwnd *. (1. -. (cc.Reliable.alpha /. 2.));
    Reliable.commit_cwnd s;
    cc.Reliable.ssthresh <- cc.Reliable.cwnd
  end

let on_window (s : _ Reliable.t) ~marked ~acked =
  let cc = s.Reliable.cc in
  let f = float_of_int marked /. float_of_int acked in
  cc.Reliable.alpha <- ((1. -. g) *. cc.Reliable.alpha) +. (g *. f);
  s.Reliable.cwr <- false;
  (* W_max only considers congestion-avoidance windows (§3.1,
     footnote 3). *)
  if cc.Reliable.ssthresh < infinity then
    cc.Reliable.wmax <- Float.max cc.Reliable.wmax cc.Reliable.cwnd

let on_loss (s : _ Reliable.t) =
  let cc = s.Reliable.cc in
  cc.Reliable.cwnd <- cc.Reliable.cwnd /. 2.;
  Reliable.commit_cwnd s;
  cc.Reliable.ssthresh <- cc.Reliable.cwnd

let on_timeout (s : _ Reliable.t) =
  let cc = s.Reliable.cc in
  let mssf = float_of_int (Reliable.mss s) in
  cc.Reliable.ssthresh <- Float.max (2. *. mssf) (cc.Reliable.cwnd /. 2.);
  cc.Reliable.cwnd <- mssf;
  Reliable.commit_cwnd s

(* [alpha] and [in_ca] are the defaults': alpha itself, and past slow
   start once ssthresh is finite. *)
let policy =
  { Reliable.default_policy with
    Reliable.on_ack; on_window; on_loss; on_timeout }

(* Plain DCTCP as a complete transport. At teardown each flow notes its
   maximum window (MW) in the run's context, for a hypothetical run. *)
let make () =
  Endpoint.window ~params:(Reliable.default_params ())
    { policy with
      Reliable.release = (fun s ->
          let cc = s.Reliable.cc and ctx = s.Reliable.ctx in
          ctx.Context.flow_wmax <-
            (s.Reliable.flow.Flow.id,
             Float.max cc.Reliable.wmax cc.Reliable.cwnd)
            :: ctx.Context.flow_wmax) }
    ()
