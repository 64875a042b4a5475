(* The traced run's recording sink.

   Installed with [Trace.with_sink] for one run, it keeps every port's
   queue operations, packed one int each, in the order the fabric did
   them: each enqueue attempt with the packet's state before it and
   the verdict (enqueued, dropped, trimmed, freshly ECN-marked), and
   each dequeue with its time. The packet state a switch sees is read
   at the far end of the link it arrived on, by wrapping each port's
   public [recv_fire] continuation; packets a host enqueues are fresh.
   It also counts and binary-encodes the events, keeping the first
   [sample_cap] bytes for the codec replay. *)

open Ppt_netsim
module Event = Ppt_obs.Event

(* Packet state before an enqueue, 21 bits. *)
let wire_bits = 11
let kind_code : Packet.kind -> int = function
  | Data -> 0 | Ack -> 1 | Grant -> 2 | Pull -> 3 | Nack -> 4 | Ctrl -> 5

let kinds = [| Packet.Data; Ack; Grant; Pull; Nack; Ctrl |]

let kind_of_char = function
  | 'D' -> Packet.Data | 'A' -> Ack | 'G' -> Grant | 'P' -> Pull
  | 'N' -> Nack | _ -> Ctrl

let clamp_prio p = max 0 (min (Prio_queue.n_prios - 1) p)

let pkt_bits ~wire ~prio ~kind ~ecn_capable ~ecn_ce ~sel_drop ~trimmed =
  if wire < 0 || wire >= 1 lsl wire_bits then
    invalid_arg "Recorder: wire size out of range";
  let b x = if x then 1 else 0 in
  wire lor (clamp_prio prio lsl 11) lor (kind_code kind lsl 14)
  lor (b ecn_capable lsl 17) lor (b ecn_ce lsl 18) lor (b sel_drop lsl 19)
  lor (b trimmed lsl 20)

let bits_of_packet (p : Packet.t) =
  pkt_bits ~wire:p.wire ~prio:p.prio ~kind:p.kind ~ecn_capable:p.ecn_capable
    ~ecn_ce:p.ecn_ce ~sel_drop:p.sel_drop ~trimmed:p.trimmed

let bits_wire b = b land 0x7ff
let bits_prio b = (b lsr 11) land 7
let bits_kind b = kinds.((b lsr 14) land 7)
let bits_flag b i = (b lsr (17 + i)) land 1 = 1
(* flags: 0 ecn_capable, 1 ecn_ce, 2 sel_drop, 3 trimmed *)

(* Queue operations: bit 0 is 1 for a dequeue; bits 1-10 the port's
   global index. An enqueue has the packet bits at 11-31, the verdict
   at 32-33 and a fresh-mark flag at 34; a dequeue has the wire size
   at 11-21, the priority at 22-24 and the time from bit 25. *)
let max_ports = 1 lsl 10

let verdict_code : Prio_queue.verdict -> int = function
  | Enqueued -> 0 | Dropped -> 1 | Trimmed -> 2

let verdicts = [| Prio_queue.Enqueued; Dropped; Trimmed |]

let is_dequeue op = op land 1 = 1
let op_port op = (op lsr 1) land (max_ports - 1)
let enq_bits op = (op lsr 11) land 0x1fffff
let enq_verdict op = verdicts.((op lsr 32) land 3)
let enq_marked op = (op lsr 34) land 1 = 1
let deq_wire op = (op lsr 11) land 0x7ff
let deq_prio op = (op lsr 22) land 7
let deq_time op = op lsr 25
let marked_bit = 1 lsl 34

type t = {
  net : Net.t;
  first_port : int array;   (* global index of each node's port 0 *)
  ops : Ops.t;
  mutable events : int;
  sample : Buffer.t;
  mutable sample_events : int;
  spill : Buffer.t;
  mutable spilled : int;
  mutable arr_node : int;   (* switch the last link arrival reached *)
  mutable arr_bits : int;
  mutable last_enq : int;   (* op index of the last enqueue *)
  mutable unmatched : int;  (* switch enqueues without an arrival *)
}

let n_ports t = t.first_port.(Array.length t.first_port - 1)

(* Enough events for steady codec timings (~2M) without holding a
   whole fabric trace in memory. *)
let sample_cap = 32 lsl 20

(* Create a recorder for [net] and wrap its ports' arrival
   continuations; call from [Runner.run]'s observe callback. *)
let attach net =
  let n = Net.n_nodes net in
  let first_port = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    first_port.(i + 1) <-
      first_port.(i) + Array.length (Net.node net i).Net.ports
  done;
  if first_port.(n) > max_ports then invalid_arg "Recorder: too many ports";
  let t =
    { net; first_port; ops = Ops.create ();
      events = 0; sample = Buffer.create (1 lsl 20);
      sample_events = 0; spill = Buffer.create (1 lsl 17); spilled = 0;
      arr_node = -1; arr_bits = 0; last_enq = -1; unmatched = 0 }
  in
  for i = 0 to n - 1 do
    Array.iter
      (fun (p : Net.port) ->
         let deliver = p.Net.recv_fire in
         let peer = p.Net.peer in
         p.Net.recv_fire <- (fun pkt ->
             t.arr_node <- peer;
             t.arr_bits <- bits_of_packet pkt;
             deliver pkt))
      (Net.node net i).Net.ports
  done;
  t

let enqueue t ~node ~port ~bits verdict =
  let bits =
    if (Net.node t.net node).Net.is_host then bits
    else if t.arr_node = node then begin
      t.arr_node <- -1;
      t.arr_bits
    end else begin
      t.unmatched <- t.unmatched + 1;
      bits
    end
  in
  t.last_enq <- Ops.length t.ops;
  Ops.push t.ops
    (((t.first_port.(node) + port) lsl 1) lor (bits lsl 11)
     lor (verdict_code verdict lsl 32))

let fresh ~size ~prio ~kind =
  pkt_bits ~wire:size ~prio ~kind:(kind_of_char kind) ~ecn_capable:false
    ~ecn_ce:false ~sel_drop:false ~trimmed:false

let sink t : Ppt_obs.Trace.sink =
  fun ts ev ->
  t.events <- t.events + 1;
  if Buffer.length t.sample < sample_cap then begin
    Event.add_binary t.sample ~ts ev;
    t.sample_events <- t.sample_events + 1
  end else begin
    Event.add_binary t.spill ~ts ev;
    if Buffer.length t.spill >= 1 lsl 16 then begin
      t.spilled <- t.spilled + Buffer.length t.spill;
      Buffer.clear t.spill
    end
  end;
  match ev with
  | Event.Enqueue { node; port; prio; kind; size; _ } ->
    enqueue t ~node ~port ~bits:(fresh ~size ~prio ~kind) Enqueued
  | Event.Drop { node; port; prio; kind; size; _ } ->
    enqueue t ~node ~port ~bits:(fresh ~size ~prio ~kind) Dropped
  | Event.Trim { node; port; prio; _ } ->
    (* a trim's own fields describe the header left behind; the packet
       it came from is the switch arrival's *)
    enqueue t ~node ~port
      ~bits:(fresh ~size:Prio_queue.trim_wire_bytes ~prio ~kind:'D')
      Trimmed
  | Event.Ecn_mark _ ->
    if t.last_enq >= 0 then
      Ops.set t.ops t.last_enq (Ops.get t.ops t.last_enq lor marked_bit)
  | Event.Dequeue { node; port; prio; size; _ } ->
    Ops.push t.ops
      (1 lor ((t.first_port.(node) + port) lsl 1) lor (size lsl 11)
       lor (clamp_prio prio lsl 22) lor (ts lsl 25))
  | _ -> ()

let encoded_bytes t =
  Buffer.length t.sample + t.spilled + Buffer.length t.spill

(* The port behind a global index. *)
let port t gid =
  let rec find n =
    if t.first_port.(n + 1) > gid then Net.port t.net n (gid - t.first_port.(n))
    else find (n + 1)
  in
  find 0
