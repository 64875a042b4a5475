(* Glue between flows and the fabric.

   A [transport] knows how to launch one flow: create sender/receiver
   endpoint state, register packet handlers at both hosts, and tear
   everything down when the receiver has the whole message. Experiment
   runners only ever see this record. *)

open Ppt_netsim

type transport = {
  t_name : string;
  t_start : Flow.t -> unit;   (* invoked at the flow's start time *)
}

type factory = Context.t -> transport

let connect ctx (flow : Flow.t) ~at_src ~at_dst =
  let net = ctx.Context.net in
  Net.register net ~host:flow.Flow.src ~flow:flow.Flow.id at_src;
  Net.register net ~host:flow.Flow.dst ~flow:flow.Flow.id at_dst

let disconnect ctx (flow : Flow.t) =
  let net = ctx.Context.net in
  Net.unregister net ~host:flow.Flow.src ~flow:flow.Flow.id;
  Net.unregister net ~host:flow.Flow.dst ~flow:flow.Flow.id

(* Standard wiring for window-based (sender-driven) transports.

   [setup] attaches congestion control (and, for PPT, the LCP loop) to
   the freshly created sender; it returns an extra teardown thunk for
   any timers it created. *)
let launch_window_flow ctx ~params ?lcp_batch ~setup flow =
  let snd = Reliable.create ctx flow params in
  let rcv = Receiver.create ?lcp_batch ctx flow in
  let teardown_extra = setup snd in
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
  rcv.Receiver.on_done <- (fun () ->
      Reliable.shutdown snd;
      teardown_extra ();
      disconnect ctx flow);
  Reliable.start snd
