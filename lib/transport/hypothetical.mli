(** The hypothetical fill-to-MW DCTCP of §2.3 (Figs. 2, 3, 20). *)

val make : fill_fraction:float -> wmax:(int * float) list -> Endpoint.factory
(** DCTCP that, each RTT, sends just enough opportunistic tail packets
    to fill the window gap up to [fill_fraction] x MW,
    MW per flow id from [wmax] (a plain DCTCP run's
    {!Context.t.flow_wmax}), or the path's BDP for a flow not in it. *)
