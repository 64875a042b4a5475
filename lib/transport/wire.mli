(** Protocol headers carried inside packets, shared by every
    transport so receivers and senders agree on a single ACK format.

    A header lives in the packet's int header words ([Packet.hw0] to
    [hw3] and [hflag]), which this module alone names: setting one is
    a few int stores, with no allocation and no write barrier. A packet carries the header matching its kind
    (ExpressPass credits travel as pull headers). Getters do not
    check the kind; a header the packet does not carry reads as
    meaningless ints. {!Ppt_netsim.Packet.make} clears every word, so
    an unset header reads as zeros and [false].

    To add a header kind, give it a setter and getters here over the
    same words. *)

open Ppt_engine
open Ppt_netsim

(** {1 Data} *)

val set_data : Packet.t -> tx:Units.time -> first_rtt:bool -> unit
(** [tx]: when the data packet left the sender. [first_rtt]: sent in
    the flow's first RTT (Aeolus). *)

val data_tx : Packet.t -> Units.time
val first_rtt : Packet.t -> bool

(** {1 Acknowledgement} *)

val no_sack : int
(** An unused SACK slot ([-1]); never a segment index. *)

val set_ack :
  Packet.t -> cum:int -> sack0:int -> sack1:int -> ece:bool ->
  data_tx:Units.time -> unit
(** [cum]: segments received in order from 0. [sack0], [sack1]: up to
    two specific segments this ack confirms, {!no_sack} for none.
    [ece]: congestion-experienced echo. [data_tx]: echo of the data
    packet's send time. Echoed inband telemetry travels in the ack
    packet's own [tel] buffer (see {!Ppt_netsim.Packet.tel_copy}). *)

val ack_cum : Packet.t -> int
val ack_sack0 : Packet.t -> int
val ack_sack1 : Packet.t -> int
val ack_ece : Packet.t -> bool
val ack_data_tx : Packet.t -> Units.time

(** {1 Grant (Homa/Aeolus)} *)

val set_grant : Packet.t -> cum:int -> upto:int -> prio:int -> unit
(** [cum]: segments received in order (progress). [upto]: the sender
    may transmit up to this segment. [prio]: priority for granted
    (scheduled) data. *)

val grant_cum : Packet.t -> int
val grant_upto : Packet.t -> int
val grant_prio : Packet.t -> int

(** {1 Pull (NDP) and credit (ExpressPass)} *)

val set_pull : Packet.t -> cum:int -> unit
(** [cum]: the receiver's in-order progress. *)

val pull_cum : Packet.t -> int

(** {1 Nack (NDP)} *)

val set_nack : Packet.t -> seq:int -> unit
(** [seq]: the trimmed segment to resend. *)

val nack_seq : Packet.t -> int
