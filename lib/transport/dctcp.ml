(* DCTCP congestion control [5], the paper's HCP and primary baseline.

   The sender estimates the fraction of ECN-marked bytes with
       alpha <- (1 - g) * alpha + g * F        (Eq. 1 of the paper)
   once per window of data and, in a window that saw any mark, cuts
       cwnd <- cwnd * (1 - alpha / 2).
   Growth is standard slow start / congestion avoidance.

   [attach] installs the policy on a {!Reliable.t} sender and returns a
   view exposing the run-time state PPT's LCP needs: alpha, the maximum
   congestion-avoidance window (W_max), startup-phase detection and a
   per-RTT callback slot (the dctcp_get_info analogue of §5.1). *)

type view = {
  alpha : unit -> float;
  wmax : unit -> float;
  in_ca : unit -> bool;     (* past the slow-start (startup) phase *)
  rtt_hook : (unit -> unit) -> unit;
  (* register a callback invoked once per observation window, after the
     alpha update *)
}

let g = 1. /. 16.   (* the EWMA gain *)

let attach (s : Reliable.t) =
  let alpha = ref 1.0 in
  let ssthresh = ref infinity in
  let wmax = ref 0. in
  let cwr = ref false in
  let on_rtt = ref (fun () -> ()) in
  let mssf = float_of_int (Reliable.mss s) in
  let in_ca () = !ssthresh < infinity in
  s.Reliable.hook_on_ack <- (fun s ai ->
      if ai.Reliable.ai_newly_acked > 0 then begin
        let newly = float_of_int ai.Reliable.ai_newly_acked in
        let cwnd = Reliable.cwnd s in
        if cwnd < !ssthresh then Reliable.set_cwnd s (cwnd +. newly)
        else Reliable.set_cwnd s (cwnd +. (mssf *. newly /. cwnd))
      end;
      (* React to the first congestion echo of each window immediately
         (Linux CWR behaviour): one alpha-proportional cut per window. *)
      if ai.Reliable.ai_ece && not !cwr then begin
        cwr := true;
        let cut = Reliable.cwnd s *. (1. -. (!alpha /. 2.)) in
        Reliable.set_cwnd s cut;
        ssthresh := Reliable.cwnd s
      end);
  s.Reliable.hook_on_window <- (fun s ~f ->
      alpha := ((1. -. g) *. !alpha) +. (g *. f);
      cwr := false;
      (* W_max only considers congestion-avoidance windows (§3.1,
         footnote 3). *)
      if in_ca () then wmax := Float.max !wmax (Reliable.cwnd s);
      !on_rtt ());
  s.Reliable.hook_on_loss <- (fun s ->
      let cut = Reliable.cwnd s /. 2. in
      Reliable.set_cwnd s cut;
      ssthresh := Reliable.cwnd s);
  s.Reliable.hook_on_timeout <- (fun s ->
      ssthresh := Float.max (2. *. mssf) (Reliable.cwnd s /. 2.);
      Reliable.set_cwnd s mssf);
  { alpha = (fun () -> !alpha);
    wmax = (fun () -> !wmax);
    in_ca;
    rtt_hook = (fun f -> on_rtt := f) }

(* Plain DCTCP as a complete transport. *)
let make ?(on_flow_wmax = fun _ _ -> ()) () =
  Endpoint.window ~params:(Reliable.default_params ()) (fun snd ->
      let view = attach snd in
      fun () ->
        on_flow_wmax (Reliable.flow snd).Flow.id
          (Float.max (view.wmax ()) (Reliable.cwnd snd)))
