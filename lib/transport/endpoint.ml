(* Glue between flows and the fabric.

   A transport is a [factory]: given the run's context, it starts one
   flow — creates sender/receiver endpoint state, registers packet
   handlers at both hosts and sets the flow's teardown, which
   [Context.flow_finished] runs when the receiver has the whole
   message. Every flow starts through [launch]. *)

open Ppt_engine
open Ppt_netsim

type factory = Context.t -> Flow.t -> unit

let connect ctx (flow : Flow.t) ~at_src ~at_dst =
  let net = ctx.Context.net in
  Net.register net ~host:flow.Flow.src ~flow:flow.Flow.id at_src;
  Net.register net ~host:flow.Flow.dst ~flow:flow.Flow.id at_dst

(* Standard wiring for window-based (sender-driven) transports: the
   sender runs [policy] over [ext], the transport's own per-flow state;
   [Reliable.create] runs the policy's [init] and the flow's teardown
   ([Reliable.shutdown]) its [release]. *)
let window ~params ?lcp_batch policy ext ctx flow =
  let snd = Reliable.create ctx flow params policy ext in
  let rcv = Receiver.create ?lcp_batch ctx flow in
  connect ctx flow
    ~at_src:(fun p ->
        match p.Packet.kind with
        | Packet.Ack -> Reliable.on_ack snd p
        | Packet.Data | Packet.Grant | Packet.Pull | Packet.Nack
        | Packet.Ctrl -> ())
    ~at_dst:(fun p ->
        match p.Packet.kind with
        | Packet.Data -> Receiver.on_data rcv p
        | Packet.Ack | Packet.Grant | Packet.Pull | Packet.Nack
        | Packet.Ctrl -> ());
  flow.Flow.teardown <- (fun () -> Reliable.shutdown snd);
  Reliable.start snd

(* Flow starts go through a cursor: the launch reserves one tie per
   flow now, where scheduling every start would have taken them, and
   keeps only the next start queued. Each start first draws the
   following spec and arms it with its reserved tie, then starts its
   own flow. The specs come in start order, so the next start is armed
   at or before its own (time, tie) and every event pops where it
   would with all starts queued up front. Only the armed spec is held:
   a run keeps no state for flows that have not started. *)
let launch ctx start ~n next =
  let sim = ctx.Context.sim in
  let first_tie = Sim.reserve sim n in
  if n > 0 then begin
    let armed = ref (next ()) in
    let start_h = ref Sim.no_handler in
    let arm i =
      Sim.post_tie sim ~at:!armed.Ppt_workload.Trace.start
        ~tie:(first_tie + i) !start_h i
    in
    start_h :=
      Sim.register sim (fun i ->
          let spec = !armed in
          if i + 1 < n then begin
            armed := next ();
            arm (i + 1)
          end;
          let flow = Flow.of_spec spec in
          Context.flow_started ctx flow;
          start flow);
    arm 0
  end
