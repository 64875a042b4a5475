(* HPCC: High Precision Congestion Control [25].

   Switches stamp inband telemetry (queue length, cumulative
   transmitted bytes, timestamp, line rate) on every data packet; the
   receiver echoes it in ACKs. The sender estimates each hop's
   utilization

     u_j = qlen_j / (B_j * T)  +  txRate_j / B_j

   takes U = max_j u_j, and sets the window multiplicatively against
   the target utilization eta with an additive term for fairness:

     W = W_ref / (U / eta) + W_ai

   W_ref is refreshed from W once per RTT. Requires the fabric to run
   with INT collection enabled ([Net.create ~collect_int:true]). *)

open Ppt_engine
open Ppt_netsim

let eta = 0.95            (* target utilization *)
let wai_segs = 0.5        (* additive increase in segments *)

(* Each hop's previous telemetry sample sits in the sender's [hops]
   array, three ints a hop: cumulative tx bytes, timestamp, and 1 once
   the hop has a sample. *)
let ensure_hops (s : _ Reliable.t) n_hops =
  let have = Array.length s.Reliable.hops in
  if have < 3 * n_hops then begin
    let hops = Array.make (3 * n_hops) 0 in
    Array.blit s.Reliable.hops 0 hops 0 have;
    s.Reliable.hops <- hops
  end

(* U = max_j u_j, folded over the ACK's hops; the reference window
   W_ref is the sender's [cc.w_ref], refreshed at most once per RTT
   (the last refresh's time in its [epoch]). *)
let on_ack (s : _ Reliable.t) tel ~newly:_ =
  let n_hops = Packet.tel_count tel in
  if n_hops > 0 then begin
    let ctx = s.Reliable.ctx in
    let cc = s.Reliable.cc in
    let t_ns = float_of_int ctx.Context.base_rtt in
    ensure_hops s n_hops;
    let hops = s.Reliable.hops in
    (* every hop's memory is updated even while U is still unknown
       (warm-up), exactly as the per-hop estimator requires. A hop
       without a previous (tx_bytes, ts) pair leaves U unknown: its
       rate term is, and a naive U ~ 0 would explode the window on the
       very first ACK. *)
    let u = ref 0. and known = ref true in
    for i = 0 to n_hops - 1 do
      let j = 3 * i in
      let tx_bytes = Packet.tel_tx_bytes tel i in
      let ts = Packet.tel_ts tel i in
      let rate_bits = float_of_int (Packet.tel_rate tel i) in
      let qterm =
        (* qlen / (B * T): queueing bytes against one BDP of the hop *)
        float_of_int (Packet.tel_qlen tel i * 8)
        /. (rate_bits *. (t_ns /. 1e9))
      in
      if hops.(j + 2) = 0 then known := false
      else begin
        let hu =
          if ts > hops.(j + 1) then begin
            let dbytes = tx_bytes - hops.(j) in
            let dt_s = float_of_int (ts - hops.(j + 1)) /. 1e9 in
            qterm +. (float_of_int (dbytes * 8) /. dt_s /. rate_bits)
          end else qterm
        in
        u := Float.max !u hu
      end;
      hops.(j) <- tx_bytes;
      hops.(j + 1) <- ts;
      hops.(j + 2) <- 1
    done;
    (* warm-up: telemetry not yet rate-capable *)
    if !known then begin
      let mssf = float_of_int (Reliable.mss s) in
      let wai = wai_segs *. mssf in
      let u = Float.max !u 0.05 in
      let w = (cc.Reliable.w_ref /. (u /. eta)) +. wai in
      (* bound the per-update ramp, as HPCC's maxStage does *)
      let w = Float.min w (2. *. cc.Reliable.w_ref) in
      cc.Reliable.cwnd <- w;
      Reliable.commit_cwnd s;
      let now = Sim.now ctx.Context.sim in
      if now - s.Reliable.epoch > ctx.Context.base_rtt then begin
        cc.Reliable.w_ref <- cc.Reliable.cwnd;
        s.Reliable.epoch <- now
      end
    end
  end

let on_loss (s : _ Reliable.t) =
  let cc = s.Reliable.cc in
  cc.Reliable.cwnd <- cc.Reliable.cwnd /. 2.;
  Reliable.commit_cwnd s;
  cc.Reliable.w_ref <- cc.Reliable.cwnd

let on_timeout (s : _ Reliable.t) =
  let cc = s.Reliable.cc in
  cc.Reliable.cwnd <- float_of_int (Reliable.mss s);
  Reliable.commit_cwnd s;
  cc.Reliable.w_ref <- cc.Reliable.cwnd

let policy =
  { Reliable.default_policy with Reliable.on_ack; on_loss; on_timeout }

let make () =
  Endpoint.window ~params:(Reliable.default_params ~ecn_capable:false ())
    policy ()
