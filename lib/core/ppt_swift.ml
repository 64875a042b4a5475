(* PPT on top of a delay-based transport (Fig. 14, §6.2).

   The paper shows PPT's design generalizes beyond DCTCP by attaching
   the LCP loop to a Swift-like delay-based HCP: a loop opens whenever
   the flow's measured fabric delay falls below the target delay, and
   closes after two RTTs without low-priority ACKs. Flow scheduling is
   unchanged from PPT.

   Implementation: the Swift view is adapted to the {!Lcp} trigger
   interface — "delay below target" plays the role of a vanishing
   alpha, and W_max tracks the delay-based congestion window. *)

open Ppt_transport

let adapt_view ctx (sv : Swift.view) (snd : Reliable.t) =
  let wmax = ref 0. in
  let boundaries = ref 0 in
  let user_hook = ref (fun () -> ()) in
  sv.Swift.rtt_hook (fun () ->
      incr boundaries;
      wmax := Float.max !wmax (Reliable.cwnd snd);
      !user_hook ());
  ignore ctx;
  { Dctcp.alpha =
      (fun () -> if sv.Swift.delay_below_target () then 0.0 else 1.0);
    wmax = (fun () -> !wmax);
    in_ca = (fun () -> !boundaries > 1);
    rtt_hook = (fun f -> user_hook := f) }

let make () ctx =
  let ppt_params = Ppt.default_params in
  let mss = Ppt_netsim.Packet.max_payload in
  { Endpoint.t_name = "ppt-swift";
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
              let sv = Swift.attach ctx snd in
              let view = adapt_view ctx sv snd in
              let lcp =
                Lcp.create ctx snd view ~identified_large:identified ()
              in
              Lcp.start lcp;
              fun () -> Lcp.shutdown lcp)
          flow) }
