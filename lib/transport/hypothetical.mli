(** The hypothetical fill-to-MW DCTCP of §2.3 (Figs. 2, 3, 20). *)

type mw_table = (int, float) Hashtbl.t

val record_pass : unit -> mw_table * Endpoint.factory
(** A plain-DCTCP recording pass: run the returned transport over a
    trace first; the table fills with each flow's maximum window. *)

val make :
  ?fill_fraction:float -> mw_table:mw_table -> unit -> Endpoint.factory
(** DCTCP that, each RTT, sends just enough opportunistic tail packets
    to fill the window gap up to [fill_fraction] x MW (default 1.0). *)
