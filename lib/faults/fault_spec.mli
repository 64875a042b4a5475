(** Declarative, windowed fault specifications.

    A spec is a list of clauses; each applies one fault kind to a set
    of ports for the half-open window [[from_t, until_t)]. Because
    every clause is a window, every injected fault is also reverted —
    a well-formed spec cannot leave the fabric down forever, so
    liveness failures under a spec point at transport recovery bugs.

    Concrete grammar (times take ns/us/ms/s suffixes; see HACKING.md):

    {v
    SPEC   := CLAUSE (';' CLAUSE)*
    CLAUSE := KIND '@' TIME '-' TIME ':' SEL
    KIND   := 'down' | 'pause' | 'loss=P' | 'ber=B'
            | 'rate=F' | 'delay+=T'
    SEL    := 'host:N' | 'tohost:N' | 'link:N' | 'node:N:P'
            | 'core' | 'edge' | 'all'
    v}

    e.g. ["down@2ms-5ms:link:3; ber=1e-5@0ms-50ms:core"]. *)

open Ppt_engine

type selector =
  | Host of int       (** host [n]'s NIC egress (host -> fabric) *)
  | To_host of int    (** last-hop switch egress towards host [n] *)
  | Link of int       (** both directions of host [n]'s edge link *)
  | Port of { node : int; port : int }  (** one explicit egress *)
  | Core              (** every switch-to-switch port *)
  | Edge              (** every host NIC and last-hop port *)
  | All

type kind =
  | Down                       (** link down; ['pause'] is an alias *)
  | Loss of float              (** uniform per-packet loss, [0,1] *)
  | Ber of float               (** per-bit error rate, (0,1e-2] *)
  | Rate of float              (** rate scaled by factor in (0,1] *)
  | Extra_delay of Units.time  (** added one-way latency *)

type clause = {
  kind : kind;
  from_t : Units.time;
  until_t : Units.time;
  sel : selector;
}

type t = clause list

val of_string : string -> (t, string) result
(** Parse and validate a spec. The empty string is [Ok []] (no
    faults). *)

val to_string : t -> string
(** Canonical rendering; [of_string (to_string s)] round-trips. *)

val validate : t -> (t, string) result
(** Range-check every clause (also done by {!of_string}). *)

val selector_to_string : selector -> string

val scenarios :
  receiver:int -> spike:Units.time -> core:bool ->
  (string * string) list
(** The canonical chaos scenario set (name, spec string): a mid-flow
    link flap, 1e-5 BER, a transient delay spike of [spike], and a
    paused receiver. [core] targets spine links where the topology has
    them, host [receiver]'s edge link otherwise. *)
