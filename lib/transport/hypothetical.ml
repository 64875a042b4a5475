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

(* A flow's fill state, the sender's [ext]. *)
type fill = {
  target : float;           (* fill_fraction x MW, bytes *)
  mutable epoch : int;      (* the current drip chain *)
  mutable shut : bool;
}

(* The gap is paced out over the round trip ("just enough packets in
   each RTT"), not blasted as a burst; a chain superseded by a newer
   epoch still fires, as a no-op. *)
let rec drip (s : fill Reliable.t) ~my_epoch ~window ~remaining () =
  let st = s.Reliable.ext and ctx = s.Reliable.ctx in
  if (not st.shut) && my_epoch = st.epoch
     && remaining >= Reliable.mss s then begin
    let pay = Reliable.send_tail ~prio:0 s in
    if pay > 0 then begin
      let interval =
        float_of_int ctx.Context.base_rtt
        *. float_of_int pay /. float_of_int window
      in
      ignore
        (Sim.schedule ctx.Context.sim
           ~after:(Int.max 1 (int_of_float interval))
           (drip s ~my_epoch ~window ~remaining:(remaining - pay)))
    end
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
        fill s);
    release = (fun s -> s.Reliable.ext.shut <- true) }

let make ?(fill_fraction = 1.0) ~mw_table () =
  let params = Reliable.default_params ~lcp_ecn_capable:false () in
  let window = Endpoint.window ~params policy in
  fun ctx flow ->
    let mw =
      match Hashtbl.find_opt mw_table flow.Flow.id with
      | Some mw -> mw
      | None -> float_of_int ctx.Context.bdp
    in
    window { target = fill_fraction *. mw; epoch = 0; shut = false } ctx flow
