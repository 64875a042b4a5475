(* The *hypothetical* DCTCP of §2.3 (Figs. 2, 3, 20).

   Built in two passes: a plain DCTCP run records every flow's maximum
   window (MW); a second run over the identical trace sends, each RTT,
   just enough opportunistic tail packets to fill the congestion
   window's gap up to [fill_fraction] x MW. The paper uses it to argue
   that filling to exactly 1.0 x MW is the right amount — less wastes
   capacity, more causes bursts and losses (Fig. 3).

   Opportunistic packets travel in-band (same priority as normal data:
   the hypothetical transport has no scheduling component). *)

open Ppt_engine

type mw_table = (int, float) Hashtbl.t

let record_pass () : mw_table * Endpoint.factory =
  let table : mw_table = Hashtbl.create 1024 in
  let factory =
    Dctcp.make ~on_flow_wmax:(fun id mw -> Hashtbl.replace table id mw) ()
  in
  (table, factory)

let make ?(fill_fraction = 1.0) ~mw_table () =
  let params = Reliable.default_params ~lcp_ecn_capable:false () in
  Endpoint.window ~params (fun snd ->
      let ctx = snd.Reliable.ctx in
      let mss = Reliable.mss snd in
      let mw =
        match Hashtbl.find_opt mw_table (Reliable.flow snd).Flow.id with
        | Some mw -> mw
        | None -> float_of_int ctx.Context.bdp
      in
      let target = fill_fraction *. mw in
      let view = Dctcp.attach snd in
      let epoch = ref 0 in
      let shut = ref false in
      (* the gap is paced out over the round trip ("just enough packets
         in each RTT"), not blasted as a burst; a chain superseded by a
         newer epoch still fires, as a no-op *)
      let rec drip ~my_epoch ~window ~remaining () =
        if (not !shut) && my_epoch = !epoch && remaining >= mss then begin
          let pay = Reliable.send_tail ~prio:0 snd in
          if pay > 0 then begin
            let interval =
              float_of_int ctx.Context.base_rtt
              *. float_of_int pay /. float_of_int window
            in
            ignore
              (Sim.schedule ctx.Context.sim
                 ~after:(Int.max 1 (int_of_float interval))
                 (drip ~my_epoch ~window ~remaining:(remaining - pay)))
          end
        end
      in
      let fill () =
        (* just enough: the window gap, minus opportunistic data still
           in flight from earlier rounds *)
        let outstanding = Reliable.l_inflight_segs snd * mss in
        let gap =
          int_of_float (target -. Reliable.cwnd snd) - outstanding
        in
        if gap >= mss then begin
          incr epoch;
          drip ~my_epoch:!epoch ~window:gap ~remaining:gap ()
        end
      in
      ignore (Sim.schedule ctx.Context.sim ~after:0 fill);
      view.Dctcp.rtt_hook fill;
      fun () -> shut := true)
