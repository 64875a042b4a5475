(** Mirror-symmetric packet tagging (§4.2 of the paper).

    The eight in-network priorities split into a high band P0-P3 for
    HCP traffic and a low band P4-P7 for LCP traffic. In each band,
    flows identified as large sit at the band's lowest priority; other
    flows start at the top and drop one level at each of 100KB, 1MB
    and 10MB sent. *)

val prio :
  identified_large:bool -> loop:Ppt_netsim.Packet.loop -> bytes_sent:int ->
  int
(** The wire priority: the level within the band (0 highest, 3
    lowest) for HCP, that level plus 4 for LCP. *)

val unscheduled : loop:Ppt_netsim.Packet.loop -> bytes_sent:int -> int
(** The Fig. 17 ablation: one fixed priority per band. *)
