(* Watch the dual-loop rate control at work: one 4MB flow on a path
   with a large bandwidth-delay product. The trace shows, RTT by RTT,
   the HCP congestion window, whether an LCP loop is open, and the
   cumulative bytes each loop has sent — the picture of Fig. 5.

     dune exec examples/spare_bandwidth.exe *)

open Ppt_engine
open Ppt_netsim
open Ppt_transport
open Ppt_core

let () =
  let sim = Sim.create () in
  let qcfg =
    { (Prio_queue.default_config ~buffer_bytes:(Units.mb 4)) with
      Prio_queue.mark_thresholds =
        Prio_queue.mark_bands ~hp:(Some (Units.kb 120))
          ~lp:(Some (Units.kb 100)) }
  in
  let topo =
    Topology.star ~sim ~n_hosts:3 ~rate:(Units.gbps 40)
      ~delay:(Units.us 20) ~qcfg ()
  in
  let ctx =
    Context.of_topology ~rto_min:(Units.ms 1) ~rng:(Rng.create 7) topo
  in
  Format.printf "base RTT %a, BDP %dKB — DCTCP needs ~%d RTTs to fill \
                 the pipe from IW10@.@."
    Units.pp_time ctx.Context.base_rtt (ctx.Context.bdp / 1000)
    (int_of_float
       (Float.log2 (float_of_int ctx.Context.bdp /. 14_600.)) + 1);
  let flow = Flow.create ~id:0 ~src:0 ~dst:2 ~size:4_000_000 ~start:0 in
  let params = Reliable.default_params ~ecn_capable:true () in
  (* DCTCP with PPT's LCP on top; the LCP's state is the sender's
     [ext], and creating the sender arms its case-1 loop *)
  let lcp = Lcp.create ~ewd:true in
  let snd = Reliable.create ctx flow params (Lcp.policy Dctcp.policy) lcp in
  let rcv = Receiver.create ~lcp_batch:2 ctx flow in
  let net = ctx.Context.net in
  Net.register net ~host:0 ~flow:0 (fun p ->
      if p.Packet.kind = Packet.Ack then Reliable.on_ack snd p);
  Net.register net ~host:2 ~flow:0 (fun p ->
      if p.Packet.kind = Packet.Data then Receiver.on_data rcv p);
  flow.Flow.teardown <- (fun () -> Reliable.shutdown snd);
  Format.printf "   t(us)   cwnd(KB)  alpha  lcp   hcp-KB   lcp-KB@.";
  let rec trace () =
    if not (Flow.is_finished flow) then begin
      Format.printf "%8.0f %10.1f %6.3f %5s %8d %8d@."
        (Units.to_us (Sim.now sim))
        (Reliable.cwnd snd /. 1e3)
        (snd.Reliable.policy.Reliable.alpha snd)
        (if Lcp.is_open lcp then "OPEN" else "-")
        (flow.Flow.hcp_payload / 1000)
        (flow.Flow.lcp_payload / 1000);
      ignore (Sim.schedule sim ~after:ctx.Context.base_rtt trace)
    end
  in
  ignore (Sim.schedule_at sim 0 trace);
  ignore (Sim.schedule_at sim 0 (fun () -> Reliable.start snd));
  Sim.run sim;
  let r = List.hd (Ppt_stats.Fct.records ctx.Context.fct) in
  Format.printf
    "@.completed in %.3f ms; %d LCP loops opened; ideal line-rate time \
     would be %.3f ms@."
    (Ppt_stats.Fct.fct_ms r)
    (Lcp.loops_opened lcp)
    (Units.to_ms
       (Units.tx_time ~rate:(Units.gbps 40) ~bytes:4_000_000
        + ctx.Context.base_rtt))
