(* PPT on top of HPCC (appendix B of the paper).

   The paper sketches this as an open design: "one may open a PPT LCP
   loop to send low-priority opportunistic packets whenever HPCC's
   estimated in-flight bytes are smaller than BDP and use PPT's
   buffer-aware scheduling to prioritize small flows over large ones".

   That is exactly what this variant does: the HCP runs HPCC (INT
   feedback, so the fabric must collect telemetry), and the LCP trigger
   fires while the flow's in-flight bytes sit below the BDP — the
   spare-capacity signal HPCC itself exposes. Scheduling is unchanged
   from PPT. *)

open Ppt_transport

let adapt_view ctx (snd : Reliable.t) =
  let wmax = ref 0. in
  let boundaries = ref 0 in
  let user_hook = ref (fun () -> ()) in
  (* HPCC installs its own hook_on_ack; ride the observation-window
     hook for per-RTT callbacks *)
  snd.Reliable.hook_on_window <- (fun s ~f:_ ->
      incr boundaries;
      wmax := Float.max !wmax (Reliable.cwnd s);
      !user_hook ());
  { Dctcp.alpha =
      (fun () ->
         if Reliable.inflight snd < ctx.Context.bdp then 0.0 else 1.0);
    wmax = (fun () -> !wmax);
    in_ca = (fun () -> !boundaries > 1);
    rtt_hook = (fun f -> user_hook := f) }

let make () ctx =
  let ppt_params = Ppt.default_params in
  let mss = Ppt_netsim.Packet.max_payload in
  { Endpoint.t_name = "ppt-hpcc";
    t_start = (fun flow ->
        let identified =
          ppt_params.Ppt.identification
          && Flow_ident.identify ppt_params.Ppt.ident ctx.Context.rng
               ~flow_size:flow.Flow.size
        in
        let tag =
          Tagging.make ~demotion:ppt_params.Ppt.demotion
            ~identified_large:identified ()
        in
        let tagger ~bytes_sent ~loop = Tagging.prio tag ~loop ~bytes_sent in
        let rel_params =
          Reliable.default_params
            ~initial_cwnd:(ppt_params.Ppt.iw_segs * mss)
            ~ecn_capable:false ~lcp_ecn_capable:true ~tagger ()
        in
        let rcv_cfg =
          { Receiver.ack_prio = 0; lcp_batch = 2; lcp_ack_prio = `Echo }
        in
        Endpoint.launch_window_flow ctx ~params:rel_params ~rcv_cfg
          ~setup:(fun snd _rcv ->
              Hpcc.attach ctx snd;
              let view = adapt_view ctx snd in
              let lcp =
                Lcp.create ctx snd view ~identified_large:identified ()
              in
              Lcp.start lcp;
              fun () -> Lcp.shutdown lcp)
          flow) }
