(* PPT: the complete pragmatic transport (§2.3, Fig. 4).

   The HCP is a primary window loop on the shared reliable sender: stock
   DCTCP in the main design, a Swift-like delay-based loop in §6.2
   (Fig. 14), or HPCC as sketched in appendix B. The LCP is {!Lcp};
   scheduling is buffer-aware identification ({!Sendbuf}) plus
   mirror-symmetric tagging ({!Tagging}).

   [make] builds the full transport; the [params] knobs turn off one
   design component at a time for the §6.3 ablations:
   - [lcp_ecn = false]   — Fig. 15: opportunistic packets without ECN;
   - [ewd = false]       — Fig. 16: line-rate LCP, no rate halving;
   - [scheduling = false]— Fig. 17: single priority per band;
   - [identification = false] — Fig. 18: all flows start unidentified. *)

open Ppt_transport

type hcp = Dctcp | Swift | Hpcc

type params = {
  sendbuf : Sendbuf.model;
  lcp_ecn : bool;
  ewd : bool;
  scheduling : bool;
  identification : bool;
}

let default_params =
  { sendbuf = Sendbuf.default;
    lcp_ecn = true; ewd = true; scheduling = true; identification = true }

(* Swift and HPCC have no alpha. Their spare-capacity predicate plays
   the role of a vanishing alpha (0 while it holds, 1 otherwise), and
   W_max tracks the window at every observation-window boundary. *)
let window_view snd ~spare =
  let wmax = ref 0. in
  let windows = ref 0 in
  let on_rtt = ref (fun () -> ()) in
  snd.Reliable.hook_on_window <- (fun s ~f:_ ->
      incr windows;
      wmax := Float.max !wmax (Reliable.cwnd s);
      !on_rtt ());
  { Dctcp.alpha = (fun () -> if spare () then 0.0 else 1.0);
    wmax = (fun () -> !wmax);
    in_ca = (fun () -> !windows > 1);
    rtt_hook = (fun f -> on_rtt := f) }

(* Install the primary loop and present it to the LCP. A loop opens
   under Swift while the fabric delay is below target, and under HPCC
   while the flow's in-flight bytes sit below the BDP. *)
let attach_hcp hcp ctx snd =
  match hcp with
  | Dctcp -> Dctcp.attach snd
  | Swift -> window_view snd ~spare:(Swift.attach ctx snd)
  | Hpcc ->
    Hpcc.attach ctx snd;
    window_view snd
      ~spare:(fun () -> Reliable.inflight snd < ctx.Context.bdp)

let make ?(hcp = Dctcp) ?(params = default_params) () =
  (* DCTCP reacts to ECN; Swift and HPCC do not mark primary data *)
  let ecn_capable = (match hcp with Dctcp -> true | Swift | Hpcc -> false) in
  fun ctx flow ->
    let identified =
      params.identification
      && Sendbuf.identify params.sendbuf ctx.Context.rng
        ~flow_size:flow.Flow.size
    in
    let tagger =
      if params.scheduling then
        fun ~bytes_sent ~loop ->
          Tagging.prio ~identified_large:identified ~loop ~bytes_sent
      else
        fun ~bytes_sent ~loop -> Tagging.unscheduled ~loop ~bytes_sent
    in
    let rel_params =
      Reliable.default_params ~ecn_capable ~lcp_ecn_capable:params.lcp_ecn
        ~sendbuf_bytes:params.sendbuf.Sendbuf.capacity ~tagger ()
    in
    Endpoint.window ~params:rel_params ~lcp_batch:2
      (fun snd ->
         let view = attach_hcp hcp ctx snd in
         let lcp =
           Lcp.create ctx snd view ~ewd:params.ewd
             ~identified_large:identified ()
         in
         Lcp.start lcp;
         fun () -> Lcp.shutdown lcp)
      ctx flow
