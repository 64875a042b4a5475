(** Glue between flows and the fabric: the interface every transport
    implements, the wiring of a flow's handlers, and the standard
    launch for window-based senders. *)

type transport = {
  t_name : string;
  t_start : Flow.t -> unit;  (** invoked at the flow's start time *)
}

type factory = Context.t -> transport

val connect :
  Context.t -> Flow.t -> at_src:(Ppt_netsim.Packet.t -> unit) ->
  at_dst:(Ppt_netsim.Packet.t -> unit) -> unit
(** Register the flow's packet handlers at its source and destination
    hosts. *)

val disconnect : Context.t -> Flow.t -> unit
(** Unregister both of the flow's handlers. *)

val launch_window_flow :
  Context.t ->
  params:Reliable.params ->
  ?lcp_batch:int ->
  setup:(Reliable.t -> unit -> unit) ->
  Flow.t -> unit
(** Create sender and receiver state ([lcp_batch] as in
    {!Receiver.create}), register both packet handlers, run [setup]
    (which attaches congestion control and returns an extra teardown
    thunk), start transmitting, and tear everything down when the
    receiver holds the whole message. *)
