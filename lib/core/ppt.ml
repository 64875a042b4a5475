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
   the role of a vanishing alpha (0 while it holds, 1 otherwise), read
   when the LCP asks; W_max tracks the window at every
   observation-window boundary, and the startup phase ends at the
   second. *)
let window_view ~spare base =
  { base with
    Reliable.on_window = (fun s ~marked:_ ~acked:_ ->
        let cc = s.Reliable.cc in
        s.Reliable.windows <- s.Reliable.windows + 1;
        cc.Reliable.wmax <- Float.max cc.Reliable.wmax cc.Reliable.cwnd);
    alpha = (fun s -> if spare s then 0.0 else 1.0);
    in_ca = (fun s -> s.Reliable.windows > 1) }

(* The primary loop as the LCP sees it. A loop opens under Swift while
   the fabric delay is below target, and under HPCC while the flow's
   in-flight bytes sit below the BDP. *)
let below_bdp s = Reliable.inflight s < s.Reliable.ctx.Context.bdp

let controller = function
  | Dctcp -> Dctcp.policy
  | Swift -> window_view ~spare:Swift.spare Swift.policy
  | Hpcc -> window_view ~spare:below_bdp Hpcc.policy

let scheduled ~large ~bytes_sent ~loop =
  Tagging.prio ~identified_large:large ~loop ~bytes_sent

let unscheduled ~large:_ ~bytes_sent ~loop =
  Tagging.unscheduled ~loop ~bytes_sent

(* Everything but the flow's identification and its LCP state is
   built once per transport. *)
let make ?(hcp = Dctcp) ?(params = default_params) () =
  (* DCTCP reacts to ECN; Swift and HPCC do not mark primary data *)
  let ecn_capable = (match hcp with Dctcp -> true | Swift | Hpcc -> false) in
  let tagger = if params.scheduling then scheduled else unscheduled in
  let rel_params =
    Reliable.default_params ~ecn_capable ~lcp_ecn_capable:params.lcp_ecn
      ~sendbuf_bytes:params.sendbuf.Sendbuf.capacity ~tagger ()
  in
  let window =
    Endpoint.window ~params:rel_params ~lcp_batch:2
      (Lcp.policy (controller hcp))
  in
  fun ctx flow ->
    flow.Flow.identified_large <-
      params.identification
      && Sendbuf.identify params.sendbuf ctx.Context.rng
        ~flow_size:flow.Flow.size;
    window (Lcp.create ~ewd:params.ewd) ctx flow
