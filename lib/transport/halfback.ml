(* Halfback [23]: "running short flows quickly and safely".

   Two mechanisms on top of loss-based TCP:
   - *pacing out*: flows below a size threshold (141KB in the paper)
     transmit their entire message in the first RTT at line rate,
     skipping slow start entirely;
   - *replay*: immediately after the initial burst, the tail of the
     flow is proactively re-transmitted in reverse order, so that a
     tail drop — the case that otherwise needs an RTO — is repaired
     without any feedback.

   Larger flows fall back to plain TCP-10 behaviour. *)

open Ppt_engine

let burst_threshold = 141_000   (* pace-out size limit (141KB) *)
let replay_segs = 8             (* how much tail to replay *)

(* large flows keep the default initial window (IW10) *)
let base = Reliable.default_params ~ecn_capable:false ()

let small (flow : Flow.t) = flow.Flow.size <= burst_threshold

(* replay: duplicate the tail right after the burst; the receiver
   discards duplicates, and a dropped tail segment arrives without
   waiting for an RTO *)
let replay (s : unit Reliable.t) =
  let nseg = s.Reliable.flow.Flow.nseg in
  let lo = Int.max 0 (nseg - replay_segs) in
  for seq = nseg - 1 downto lo do
    if Reliable.seg_state s seq <> Reliable.st_sacked then
      Reliable.send_lcp_segment ~prio:0 s seq
  done

let policy =
  { Tcp.policy with
    Reliable.init = (fun s ->
        if small s.Reliable.flow then begin
          let ctx = s.Reliable.ctx in
          ignore
            (Sim.schedule ctx.Context.sim ~after:(ctx.Context.base_rtt / 2)
               (fun () -> replay s))
        end) }

let make () ctx flow =
  let params =
    if small flow then
      { base with
        Reliable.initial_cwnd =
          Int.max flow.Flow.size base.Reliable.initial_cwnd }
    else base
  in
  Endpoint.window ~params policy () ctx flow
