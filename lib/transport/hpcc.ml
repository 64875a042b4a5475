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

type hop_memory = {
  mutable prev_tx_bytes : int;
  mutable prev_ts : Units.time;
  mutable valid : bool;
}

let attach ctx (s : Reliable.t) =
  let mssf = float_of_int (Reliable.mss s) in
  let wai = wai_segs *. mssf in
  let t_ns = float_of_int ctx.Context.base_rtt in
  let hops : (int, hop_memory) Hashtbl.t = Hashtbl.create 8 in
  let w_ref = ref (Reliable.cwnd s) in
  let last_ref_update = ref 0 in
  let hop_mem i =
    match Hashtbl.find_opt hops i with
    | Some m -> m
    | None ->
      let m = { prev_tx_bytes = 0; prev_ts = 0; valid = false } in
      Hashtbl.add hops i m;
      m
  in
  (* Returns [None] until the hop has two telemetry samples: without a
     previous (tx_bytes, ts) pair the rate term is unknown and a naive
     U ~ 0 would explode the window on the very first ACK. *)
  let hop_utilization i (tel : Packet.t) =
    let m = hop_mem i in
    let tx_bytes = Packet.tel_tx_bytes tel i in
    let ts = Packet.tel_ts tel i in
    let rate_bits = float_of_int (Packet.tel_rate tel i) in
    let qterm =
      (* qlen / (B * T): queueing bytes against one BDP of the hop *)
      float_of_int (Packet.tel_qlen tel i * 8)
      /. (rate_bits *. (t_ns /. 1e9))
    in
    let txterm =
      if m.valid && ts > m.prev_ts then begin
        let dbytes = tx_bytes - m.prev_tx_bytes in
        let dt_s = float_of_int (ts - m.prev_ts) /. 1e9 in
        Some (float_of_int (dbytes * 8) /. dt_s /. rate_bits)
      end else None
    in
    let had_sample = m.valid in
    m.prev_tx_bytes <- tx_bytes;
    m.prev_ts <- ts;
    m.valid <- true;
    match txterm with
    | Some tx -> Some (qterm +. tx)
    | None -> if had_sample then Some qterm else None
  in
  s.Reliable.hook_on_ack <- (fun s ai ->
      let tel = Packet.of_id ai.Reliable.ai_tel in
      let n_hops = Packet.tel_count tel in
      if n_hops > 0 then begin
        (* every hop's memory is updated even while U is still unknown
           (warm-up), exactly as the per-hop estimator requires *)
        let u = ref (Some 0.) in
        for i = 0 to n_hops - 1 do
          (match !u, hop_utilization i tel with
           | Some acc, Some hu -> u := Some (Float.max acc hu)
           | _, _ -> u := None)
        done;
        match !u with
        | None -> ()   (* warm-up: telemetry not yet rate-capable *)
        | Some u ->
          let u = Float.max u 0.05 in
          let w = (!w_ref /. (u /. eta)) +. wai in
          (* bound the per-update ramp, as HPCC's maxStage does *)
          let w = Float.min w (2. *. !w_ref) in
          Reliable.set_cwnd s w;
          let now = Sim.now ctx.Context.sim in
          if now - !last_ref_update > ctx.Context.base_rtt then begin
            w_ref := Reliable.cwnd s;
            last_ref_update := now
          end
      end);
  s.Reliable.hook_on_loss <- (fun s ->
      Reliable.set_cwnd s (Reliable.cwnd s /. 2.);
      w_ref := Reliable.cwnd s);
  s.Reliable.hook_on_timeout <- (fun s ->
      Reliable.set_cwnd s mssf;
      w_ref := Reliable.cwnd s)

let make () =
  Endpoint.window ~params:(Reliable.default_params ~ecn_capable:false ())
    (fun snd -> attach snd.Reliable.ctx snd; fun () -> ())
