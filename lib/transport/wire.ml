(* Protocol headers carried inside packets, shared by every transport
   so receivers and senders agree on a single ACK format. A header is
   the packet's four int words and its flag; this is the only module
   that names them (see wire.mli for the contract):

     header  hw0        hw1    hw2    hw3       hflag
     data    tx         -      -      -         first_rtt
     ack     cum        sack0  sack1  data_tx   ece
     grant   cum        upto   prio   -         -
     pull    cum        -      -      -         -
     nack    seq        -      -      -         -
*)

open Ppt_engine
open Ppt_netsim

let no_sack = -1

(* data *)

let set_data (p : Packet.t) ~(tx : Units.time) ~first_rtt =
  p.hw0 <- tx;
  p.hflag <- first_rtt

let data_tx (p : Packet.t) : Units.time = p.hw0
let first_rtt (p : Packet.t) = p.hflag

(* ack *)

let set_ack (p : Packet.t) ~cum ~sack0 ~sack1 ~ece ~(data_tx : Units.time) =
  p.hw0 <- cum;
  p.hw1 <- sack0;
  p.hw2 <- sack1;
  p.hw3 <- data_tx;
  p.hflag <- ece

let ack_cum (p : Packet.t) = p.hw0
let ack_sack0 (p : Packet.t) = p.hw1
let ack_sack1 (p : Packet.t) = p.hw2
let ack_data_tx (p : Packet.t) : Units.time = p.hw3
let ack_ece (p : Packet.t) = p.hflag

(* grant *)

let set_grant (p : Packet.t) ~cum ~upto ~prio =
  p.hw0 <- cum;
  p.hw1 <- upto;
  p.hw2 <- prio

let grant_cum (p : Packet.t) = p.hw0
let grant_upto (p : Packet.t) = p.hw1
let grant_prio (p : Packet.t) = p.hw2

(* pull *)

let set_pull (p : Packet.t) ~cum = p.hw0 <- cum
let pull_cum (p : Packet.t) = p.hw0

(* nack *)

let set_nack (p : Packet.t) ~seq = p.hw0 <- seq
let nack_seq (p : Packet.t) = p.hw0
