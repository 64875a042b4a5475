(** A flow: one application message between two hosts, segmented into
    MTU-sized packets, with counters shared by its two endpoints. *)

open Ppt_engine

type t = {
  id : int;
  src : int;
  dst : int;
  size : int;
  nseg : int;
  start : Units.time;
  mutable retrans : int;
  mutable hcp_payload : int;
  mutable lcp_payload : int;
  mutable hcp_delivered : int;
  mutable lcp_delivered : int;
  mutable finished : Units.time option;
}

val create :
  id:int -> src:int -> dst:int -> size:int -> start:Units.time -> t
(** Raises [Invalid_argument] on a non-positive size or [src = dst]. *)

val of_spec : Ppt_workload.Trace.spec -> t
val seg_payload : t -> int -> int
val is_finished : t -> bool
