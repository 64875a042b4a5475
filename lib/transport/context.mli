(** Per-run environment shared by all transports, and the flow
    lifecycle they share: every data segment is sent through
    {!send_data}, and every flow finishes through {!flow_finished}. *)

open Ppt_engine
open Ppt_netsim
open Ppt_stats

type t = {
  sim : Sim.t;
  net : Net.t;
  base_rtt : Units.time;
  edge_rate : Units.rate;
  bdp : int;                        (** bytes, of the edge path *)
  rto_min : Units.time;
  fct : Fct.t;                      (** completed-flow statistics sink *)
  rng : Rng.t;
  ops : int array;                  (** per-node datapath-operation counters *)
  mutable started : int;
  mutable completed : int;
  mutable on_complete : int -> unit;
  mutable flow_wmax : (int * float) list;
  (** [(flow id, W_max)] of each flow plain DCTCP finished in the run. *)
}

val of_topology : rto_min:Units.time -> rng:Rng.t -> Topology.built -> t
(** The context of a run on a built topology, with the minimum
    retransmission timeout [rto_min]. A context starts a run: it calls
    [Packet.reset], so packets made before it cannot be sent in the
    run. *)

val now : t -> Units.time

val count_op : t -> int -> unit
(** Count one datapath operation at a host (the Fig. 19 CPU proxy). *)

val flow_started : t -> Flow.t -> unit
(** Count a launched flow and emit a [Flow_start] trace event. *)

val send_data :
  t -> Flow.t -> loop:Packet.loop -> prio:int -> ecn_capable:bool ->
  first_rtt:bool -> sel_drop:bool -> retransmission:bool -> int -> unit
(** [send_data ctx flow ... seq] makes segment [seq] of [flow], stamps
    it with the send time ({!Wire.set_data}) and sends it. It counts
    one datapath operation at the source and the segment's payload
    on [loop] ([hcp_payload] or [lcp_payload]); when [retransmission],
    it also counts a retransmission and, after the send, emits a
    [Retransmit] trace event. *)

val flow_finished : t -> Flow.t -> unit
(** Finish a flow, once: record it (a [Flow_done] trace event and an
    FCT record), fire [on_complete], run the flow's [teardown] and
    unregister both of its handlers, so a later packet for it is
    undeliverable. A second call does nothing. *)
