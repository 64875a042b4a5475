(** Per-run environment shared by all transports. *)

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
}

val create :
  sim:Sim.t -> net:Net.t -> base_rtt:Units.time ->
  edge_rate:Units.rate -> rto_min:Units.time -> rng:Rng.t -> unit -> t
(** A context starts a run: it calls [Packet.reset], so packets made
    before it cannot be sent in the run. *)

val of_topology :
  ?rto_min:Units.time -> rng:Rng.t -> Topology.built -> t
(** Derive a context from a built topology; [rto_min] defaults to 10ms. *)

val now : t -> Units.time

val count_op : t -> int -> unit
(** Count one datapath operation at a host (the Fig. 19 CPU proxy). *)

val flow_started : t -> Flow.t -> unit
(** Count a launched flow and emit a [Flow_start] trace event. *)

val flow_finished : t -> Flow.t -> unit
(** Record a completed flow exactly once and fire [on_complete]. *)
