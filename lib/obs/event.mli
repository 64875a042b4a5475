(** Structured trace events.

    One flat variant covers the whole stack: packet lifecycle at the
    switch queues (netsim), transport state transitions (reliable
    sender, LCP), flow lifecycle (harness) and sampled probes. Fields
    are plain integers so the event layer depends on nothing above it;
    emitters translate their own types (packet kinds and loops become
    one-character tags).

    Times are integer nanoseconds ([Ppt_engine.Units.time]) but typed
    [int] here to keep the library at the bottom of the dependency
    graph. *)

type t =
  | Enqueue of {
      node : int; port : int; prio : int;
      flow : int; seq : int;
      kind : char;  (** 'D' data, 'A' ack, 'G' grant, 'P' pull,
                        'N' nack, 'C' ctrl *)
      size : int;   (** wire bytes *)
      occ : int;    (** port occupancy after the enqueue *)
    }
  | Dequeue of {
      node : int; port : int; prio : int;
      flow : int; seq : int; kind : char; size : int;
      occ : int;    (** port occupancy after the dequeue *)
    }
  | Ecn_mark of {
      node : int; port : int; prio : int;
      flow : int; seq : int;
      occ : int;        (** occupancy the marked packet saw *)
      threshold : int;  (** configured marking threshold *)
    }
  | Drop of {
      node : int; port : int; prio : int;
      flow : int; seq : int; kind : char; size : int;
      occ : int;    (** port occupancy at the drop (unchanged by it) *)
    }
  | Trim of {
      node : int; port : int; prio : int;
      flow : int; seq : int;
      cut : int;    (** payload bytes cut from the packet *)
      occ : int;    (** port occupancy after the header enqueue *)
    }
  | Cwnd_update of { flow : int; cwnd : int (** bytes, rounded *) }
  | Loop_switch of {
      flow : int;
      active : bool;  (** LCP loop opened ([true]) or closed *)
      window : int;   (** initial window at open, 0 at close *)
    }
  | Rto_fire of { flow : int; backoff : int }
  | Retransmit of { flow : int; seq : int; loop : char (** 'H'/'L' *) }
  | Flow_start of { flow : int; size : int }
  | Flow_done of { flow : int; size : int; fct : int }
  | Probe_queue of {
      node : int; port : int;
      occ : int;     (** total port occupancy, bytes *)
      lp_occ : int;  (** low-priority band (P4-P7) occupancy *)
    }
  | Probe_link of {
      node : int; port : int;
      tx_bytes : int;   (** cumulative wire bytes transmitted *)
      util_ppm : int;   (** utilization since last probe, ppm *)
    }
  | Probe_dt of {
      node : int; port : int;
      hp : int;  (** current dynamic threshold of the high band *)
      lp : int;  (** current dynamic threshold of the low band *)
    }
  | Link_down of { node : int; port : int }
      (** Fault injection took the egress port down. *)
  | Link_up of { node : int; port : int }
      (** The port came back up (also closes a degrade window). *)
  | Link_degrade of {
      node : int; port : int;
      rate_ppm : int;     (** effective rate as ppm of nominal *)
      extra_delay : int;  (** added one-way latency, ns *)
    }
  | Fault_drop of {
      node : int; port : int; flow : int; seq : int;
      kind : char; size : int;
      reason : char;  (** 'L' random loss, 'C' corruption (BER),
                          'D' discarded at a downed egress *)
    }

val tag : t -> string
(** Stable lowercase tag, e.g. ["enqueue"], ["ecn_mark"]. *)

val ordinal : t -> int
(** The event's kind as an index in [\[0, kinds)]: its binary tag byte.
    Reads no field, so it is the cheap way to count events by kind. *)

val kinds : int
(** Number of event kinds. *)

val tag_of_ordinal : int -> string
(** [tag_of_ordinal (ordinal ev) = tag ev]. *)

val to_json_line : ts:int -> t -> string
(** One canonical JSON object (no trailing newline):
    [{"t":<ts>,"ev":"<tag>",...}]. Field order is fixed, so equal
    events serialize to equal strings and traces can be diffed
    textually. *)

val of_json_line : string -> (int * t) option
(** Parse a line produced by {!to_json_line}; [None] on anything
    malformed. *)

(** {2 Binary encoding}

    Compact hot-path counterpart of the JSONL encoding: one tag byte,
    then the timestamp and every field as zigzag varints (in
    {!to_json_line}'s field order), chars/bools as single bytes. A
    stream starts with {!bin_magic}. Decoding and re-encoding as JSONL
    reproduces the textual trace byte-for-byte ([ppt_trace decode]). *)

val bin_magic : string
(** 5-byte stream header: ["PPTB"] plus a version byte. *)

val add_binary : Buffer.t -> ts:int -> t -> unit
(** Append one event to a buffer (no header). *)

val of_binary : string -> int ref -> (int * t) option
(** [of_binary s pos] decodes the event at [!pos] (advancing [pos]);
    [None] once [s] is exhausted. The caller strips {!bin_magic}
    first. @raise Failure on a corrupt or truncated stream. *)
