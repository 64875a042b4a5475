(** DCTCP congestion control [5]: alpha-weighted ECN reaction on the
    shared reliable sender. The paper's HCP and primary baseline. *)

type view = {
  alpha : unit -> float;
  (** the running ECN-fraction estimate (Eq. 1) *)
  wmax : unit -> float;
  (** largest congestion-avoidance window seen (W_max of Eq. 2) *)
  in_ca : unit -> bool;
  (** past the startup (slow-start) phase *)
  rtt_hook : (unit -> unit) -> unit;
  (** register a callback fired once per observation window *)
}

val attach : Reliable.t -> view
(** Install DCTCP (EWMA gain 1/16) on a sender and expose its run-time
    state — the dctcp_get_info analogue PPT's LCP consumes (§5.1). The
    one HCP-signal type: PPT over Swift or HPCC presents its primary
    loop through the same view. *)

val make :
  ?on_flow_wmax:(int -> float -> unit) -> unit -> Endpoint.factory
(** Plain IW10 DCTCP as a complete transport. [on_flow_wmax] receives
    each flow's W_max at teardown (used by the hypothetical DCTCP). *)
