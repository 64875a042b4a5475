(* A flow: one application message from a source host to a destination
   host, segmented into MTU-sized packets. Counters are shared between
   the sender and receiver endpoints of whatever transport carries it. *)

open Ppt_engine
open Ppt_netsim

type t = {
  id : int;
  src : int;
  dst : int;
  size : int;                       (* bytes *)
  nseg : int;
  start : Units.time;
  mutable retrans : int;
  mutable hcp_payload : int;        (* payload bytes put on the wire *)
  mutable lcp_payload : int;        (* ... by a low-priority loop *)
  mutable hcp_delivered : int;      (* fresh payload accepted at the rx *)
  mutable lcp_delivered : int;
  mutable finished : Units.time option;
}

let create ~id ~src ~dst ~size ~start =
  if size <= 0 then invalid_arg "Flow.create: size must be positive";
  if src = dst then invalid_arg "Flow.create: src = dst";
  { id; src; dst; size; nseg = Packet.segments_of_bytes size; start;
    retrans = 0; hcp_payload = 0; lcp_payload = 0;
    hcp_delivered = 0; lcp_delivered = 0; finished = None }

let of_spec (s : Ppt_workload.Trace.spec) =
  create ~id:s.id ~src:s.src ~dst:s.dst ~size:s.size ~start:s.start

(* Same result as [Packet.segment_payload], but against the stored
   [nseg] — this runs several times per segment on the ack path, and
   recomputing the segment count would put an integer division there. *)
let seg_payload t seq =
  assert (seq >= 0 && seq < t.nseg);
  if seq = t.nseg - 1 then t.size - ((t.nseg - 1) * Packet.max_payload)
  else Packet.max_payload

let is_finished t = t.finished <> None
