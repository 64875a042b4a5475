(** The skeleton shared by the receiver-driven transports (NDP,
    ExpressPass, Homa/Aeolus): the sender record with its data send
    and RTO backstop, the receiver's per-message grant, a line-rate
    pacer, per-host receiver state and the flow's handler wiring. Each
    protocol adds only its policy on top. *)

open Ppt_netsim

(** {1 Sender} *)

type sender = {
  ctx : Context.t;
  flow : Flow.t;
  mutable snd_nxt : int;            (** next segment never sent *)
  mutable cum : int;                (** receiver's in-order progress, as last heard *)
  mutable timer : int;              (** the pending backstop, or [-1] *)
  mutable shut : bool;
  mutable fire : unit -> unit;      (** preallocated backstop callback *)
}

val sender : Context.t -> Flow.t -> sender

val send_data :
  sender -> prio:int -> ?first_rtt:bool -> ?sel_drop:bool ->
  retransmission:bool -> int -> unit
(** Send one data segment (stamped with the send time) and count it:
    one datapath operation at the source, its payload, and a
    retransmission when [retransmission]. *)

val backstop : sender -> (unit -> unit) -> unit
(** [backstop s resend] runs [resend] every [rto_min] from now until
    the flow completes, whether or not it made progress. *)

(** {1 Receiver} *)

(** A message at its receiver: its segments and completion are the
    flow's ({!Flow.accept}); the message adds what was granted. *)
type msg = {
  m_flow : Flow.t;
  mutable granted : int;            (** segments the receiver has let the sender send *)
  mutable on_done : unit -> unit;   (** set by {!connect} *)
}

val message : ?granted:int -> Flow.t -> msg
(** A fresh message; [granted] defaults to 0. *)

val finish : Context.t -> msg -> unit
(** Record the flow's completion and tear the flow down
    ([on_done]). *)

val control : Flow.t -> Packet.kind -> Packet.t
(** A fresh P0 control packet from the flow's receiver to its sender,
    not yet sent: write its header with the matching {!Wire} setter,
    then hand it to [Net.send]. *)

type pacer

val pacer : Context.t -> (unit -> bool) -> pacer
(** [pacer ctx emit] runs [emit] once per MTU serialization slot of the
    edge link from the next {!kick} on, until [emit] returns [false]
    (nothing left to send). *)

val kick : pacer -> unit
(** Start the pacer now, unless it is already running. *)

val per_host : Context.t -> (unit -> 'a) -> int -> 'a
(** [per_host ctx make] is a lookup from host to its receiver state,
    created by [make] the first time a host is asked for. *)

(** {1 Wiring} *)

val connect :
  sender -> msg -> at_src:(Packet.t -> unit) -> at_dst:(Packet.t -> unit) ->
  unit
(** Register the flow's handlers at both hosts, and make completion
    stop the sender ([shut], backstop cancelled) and unregister
    them. *)
