(** The skeleton shared by the receiver-driven transports (NDP,
    ExpressPass, Homa/Aeolus): the sender record with its RTO
    backstop, the receiver's control packets, a line-rate pacer and
    per-host receiver state. The rest of a flow's life is every
    transport's: data goes out through {!Context.send_data}, the
    receiver keeps its scoreboard and grant on the flow
    ({!Flow.accept}, [Flow.granted]), handlers are registered with
    {!Endpoint.connect}, and the flow finishes through
    {!Context.flow_finished}. Each protocol adds only its policy on
    top. *)

open Ppt_netsim

(** {1 Sender} *)

type sender = {
  ctx : Context.t;
  flow : Flow.t;
  mutable snd_nxt : int;            (** next segment never sent *)
  mutable cum : int;                (** receiver's in-order progress, as last heard *)
  mutable timer : int;              (** the pending backstop, or [-1] *)
  mutable fire : unit -> unit;      (** preallocated backstop callback *)
}

val sender : Context.t -> Flow.t -> sender
(** A fresh sender; the flow's teardown becomes cancelling its
    backstop. *)

val backstop : sender -> (unit -> unit) -> unit
(** [backstop s resend] runs [resend] every [rto_min] from now until
    the flow completes, whether or not it made progress. *)

(** {1 Receiver} *)

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
