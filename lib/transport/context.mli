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
  mutable timers : (unit -> unit) array;
  (** The run's timer table: per-flow timer callbacks, by id. *)
  mutable timer_next : int array;
  mutable timer_free : int;
  mutable timer_h : Sim.handler;
  (** The lane handler that fires [timers.(id)]. *)
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

(** {2 Timer table}

    Per-flow timers that are armed and cancelled over and over (the
    reliable sender's RTO, the LCP's pacer and watchdog) keep their
    callback in this per-run table and fire through the simulator's
    int lane: arming posts the callback's id, and cancelling goes
    through {!Ppt_engine.Sim.cancel_post} with the ticket. Neither
    allocates. *)

val add_timer : t -> (unit -> unit) -> int
(** Store a callback; returns its id. *)

val remove_timer : t -> int -> unit
(** Free an id for reuse. Only once no event posted with it is still
    queued: cancel it first. *)

val post_timer : t -> after:Units.time -> int -> int
(** Fire callback [id] after [after], taking the next tie as
    {!Ppt_engine.Sim.schedule} would. Returns the ticket for
    {!Ppt_engine.Sim.cancel_post}. *)
