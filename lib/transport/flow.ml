(* A flow: one application message from a source host to a destination
   host, segmented into MTU-sized packets. Counters are shared between
   the sender and receiver endpoints of whatever transport carries it;
   so are the receiver's scoreboard and grant, which every transport
   keeps, and the teardown its transport runs when the flow finishes. *)

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
  bitmap : Bytes.t;                 (* one byte per segment, 1 = held *)
  mutable held : int;               (* distinct segments held *)
  mutable cum : int;                (* first segment not yet held *)
  mutable finished : Units.time option;
  mutable granted : int;            (* segments the receiver let go *)
  mutable identified_large : bool;  (* PPT: first write marked it large *)
  mutable teardown : unit -> unit;  (* set by the transport *)
}

let create ~id ~src ~dst ~size ~start =
  if size <= 0 then invalid_arg "Flow.create: size must be positive";
  if src = dst then invalid_arg "Flow.create: src = dst";
  let nseg = Packet.segments_of_bytes size in
  { id; src; dst; size; nseg; start;
    retrans = 0; hcp_payload = 0; lcp_payload = 0;
    hcp_delivered = 0; lcp_delivered = 0;
    bitmap = Bytes.make nseg '\000'; held = 0; cum = 0; finished = None;
    granted = 0; identified_large = false; teardown = ignore }

let of_spec (s : Ppt_workload.Trace.spec) =
  create ~id:s.id ~src:s.src ~dst:s.dst ~size:s.size ~start:s.start

(* Against the stored [nseg]: this runs several times per segment on
   the ack path, and recomputing the segment count would put an integer
   division there. *)
let seg_payload t seq =
  assert (seq >= 0 && seq < t.nseg);
  if seq = t.nseg - 1 then t.size - ((t.nseg - 1) * Packet.max_payload)
  else Packet.max_payload

let accept t (p : Packet.t) =
  let seq = p.seq in
  if seq >= 0 && seq < t.nseg && Bytes.get t.bitmap seq = '\000' then begin
    Bytes.set t.bitmap seq '\001';
    t.held <- t.held + 1;
    while t.cum < t.nseg && Bytes.get t.bitmap t.cum = '\001' do
      t.cum <- t.cum + 1
    done;
    match p.loop with
    | Packet.H -> t.hcp_delivered <- t.hcp_delivered + p.payload
    | Packet.L -> t.lcp_delivered <- t.lcp_delivered + p.payload
  end

let complete t = t.held = t.nseg

let is_finished t =
  match t.finished with Some _ -> true | None -> false
