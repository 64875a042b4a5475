(** Halfback [23]: pace out small flows entirely in the first RTT and
    proactively replay the tail; larger flows fall back to TCP-10. *)

val replay_segs : int
(** How many tail segments a small flow replays (8). *)

val make : unit -> Endpoint.factory
(** Flows up to 141KB pace out; larger ones start at IW10. *)
