(* The *hypothetical* DCTCP of §2.3 (Figs. 2, 3, 20).

   Built in two passes: a plain DCTCP run notes every flow's maximum
   window (MW) in its context; a second run over the identical trace
   sends, each RTT, just enough opportunistic tail packets to fill the
   congestion window's gap up to [fill_fraction] x MW. The paper uses
   it to argue that filling to exactly 1.0 x MW is the right amount —
   less wastes capacity, more causes bursts and losses (Fig. 3).

   Opportunistic packets travel in-band (same priority as normal data:
   the hypothetical transport has no scheduling component). *)

open Ppt_engine

(* A flow's fill state, the sender's [ext]. *)
type fill = {
  target : float;           (* fill_fraction x MW, bytes *)
  mutable epoch : int;      (* the current drip chain *)
}

(* The gap is paced out over the round trip ("just enough packets in
   each RTT"), not blasted as a burst, at the LCP's pacing gap; a chain
   superseded by a newer epoch still fires, as a no-op. *)
let rec drip (s : fill Reliable.t) ~my_epoch ~window ~remaining () =
  let st = s.Reliable.ext and ctx = s.Reliable.ctx in
  if (not s.Reliable.shut) && my_epoch = st.epoch
     && remaining >= Reliable.mss s then begin
    let pay = Reliable.send_tail ~prio:0 s in
    if pay > 0 then
      ignore
        (Sim.schedule ctx.Context.sim
           ~after:
             (Reliable.pace_interval ~rtt:ctx.Context.base_rtt ~sent:pay
                ~window)
           (drip s ~my_epoch ~window ~remaining:(remaining - pay)))
  end

(* Just enough: the window gap, minus opportunistic data still in
   flight from earlier rounds. *)
let fill (s : fill Reliable.t) =
  let st = s.Reliable.ext and mss = Reliable.mss s in
  let outstanding = Reliable.l_inflight_segs s * mss in
  let gap = int_of_float (st.target -. Reliable.cwnd s) - outstanding in
  if gap >= mss then begin
    st.epoch <- st.epoch + 1;
    drip s ~my_epoch:st.epoch ~window:gap ~remaining:gap ()
  end

(* DCTCP, filling at flow start and after every observation window. *)
let policy =
  { Dctcp.policy with
    Reliable.init = (fun s ->
        ignore
          (Sim.schedule s.Reliable.ctx.Context.sim ~after:0 (fun () ->
               fill s)));
    on_window = (fun s ~marked ~acked ->
        Dctcp.policy.Reliable.on_window s ~marked ~acked;
        fill s) }

let make ~fill_fraction ~wmax =
  let params = Reliable.default_params ~lcp_ecn_capable:false () in
  let window = Endpoint.window ~params policy in
  let mw_of = Hashtbl.of_seq (List.to_seq wmax) in
  fun ctx flow ->
    let mw =
      match Hashtbl.find_opt mw_of flow.Flow.id with
      | Some mw -> mw
      | None -> float_of_int ctx.Context.bdp
    in
    window { target = fill_fraction *. mw; epoch = 0 } ctx flow
