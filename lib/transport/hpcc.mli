(** HPCC [25]: high-precision congestion control from inband
    telemetry. Requires the fabric to run with INT collection. *)

val policy : 'x Reliable.policy
(** Drive the sender's window from telemetry: target utilization 0.95,
    additive increase of half a segment per update. *)

val make : unit -> Endpoint.factory
(** HPCC over an IW10 sender. *)
