(** Glue between flows and the fabric: the interface every transport
    implements, the wiring of a flow's handlers, the standard window
    sender, and the launcher that starts every flow. *)

type factory = Context.t -> Flow.t -> unit
(** A transport: applied to a run's context, it starts one flow (at
    the flow's start time). Its name lives in the scheme catalogue. *)

val connect :
  Context.t -> Flow.t -> at_src:(Ppt_netsim.Packet.t -> unit) ->
  at_dst:(Ppt_netsim.Packet.t -> unit) -> unit
(** Register the flow's packet handlers at its source and destination
    hosts. {!Context.flow_finished} unregisters them. *)

val window :
  params:Reliable.params -> ?lcp_batch:int -> 'x Reliable.policy -> 'x ->
  factory
(** [window ~params policy ext] is a window-based transport. For each
    flow it creates the sender ({!Reliable.create}, which runs the
    policy's [init] over [ext], the transport's own per-flow state,
    [()] for a plain controller) and the receiver ([lcp_batch] as in
    {!Receiver.create}), registers both packet handlers, makes the
    flow's teardown {!Reliable.shutdown} (which runs the policy's
    [release]) and starts transmitting. Apply it to [params], [policy]
    and, for a stateless [ext], [ext] once per transport, so a flow
    start allocates no closure for them. *)

val launch :
  Context.t -> (Flow.t -> unit) -> n:int ->
  (unit -> Ppt_workload.Trace.spec) -> unit
(** [launch ctx start ~n next] starts [n] flows, drawing their specs
    from [next] one at a time ({!Ppt_workload.Trace.source}, or
    {!Ppt_workload.Trace.cursor} over a list). Each flow starts at its
    start time: {!Context.flow_started}, then [start]. Every event
    pops where it would if every start were scheduled now, in draw
    order; only the next start is queued, and [next] is called for it
    when the start before it fires (for the first, now). The specs
    must come in start order: a start before the one drawn ahead of it
    raises [Invalid_argument] from the run, as
    {!Ppt_engine.Sim.post_tie} refuses a time in the past. *)
