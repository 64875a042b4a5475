(** Mirror-symmetric packet tagging (§4.2 of the paper).

    The eight in-network priorities split into a high band P0-P3 for
    HCP traffic and a low band P4-P7 for LCP traffic. In each band,
    flows identified as large sit at the band's lowest priority; other
    flows start at the top and age downwards as they send bytes. *)

type t

val make : ?demotion:int array -> identified_large:bool -> unit -> t
(** Raises [Invalid_argument] unless [demotion] holds 3 ascending
    positive thresholds. *)

val level : t -> bytes_sent:int -> int
(** Priority level within a band: 0 (highest) to 3. *)

val prio : t -> loop:Ppt_netsim.Packet.loop -> bytes_sent:int -> int
(** The wire priority: [level] for HCP, [level + 4] for LCP. *)

val unscheduled : loop:Ppt_netsim.Packet.loop -> bytes_sent:int -> int
(** The Fig. 17 ablation: one fixed priority per band. *)
