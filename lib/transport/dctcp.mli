(** DCTCP congestion control [5]: alpha-weighted ECN reaction on the
    shared reliable sender. The paper's HCP and primary baseline. *)

val policy : 'x Reliable.policy
(** DCTCP (EWMA gain 1/16). It keeps alpha, ssthresh and W_max (the
    largest congestion-avoidance window) in the sender's [cc] record;
    its [alpha] and [in_ca] are what PPT's LCP reads — the
    dctcp_get_info analogue of §5.1. PPT over Swift or HPCC presents
    its primary loop through the same two functions. *)

val make : unit -> Endpoint.factory
(** Plain IW10 DCTCP as a complete transport. Each flow it finishes
    adds its W_max ([Float.max wmax cwnd] at teardown) to the run's
    {!Context.t.flow_wmax}. *)
