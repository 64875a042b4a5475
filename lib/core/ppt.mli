(** PPT: the complete pragmatic transport (dual-loop rate control +
    buffer-aware flow scheduling) over a choice of primary loop, and
    its ablation variants. *)

open Ppt_transport

type hcp =
  | Dctcp  (** the main design: alpha-driven loops *)
  | Swift  (** §6.2, Fig. 14: loops open while delay is below target *)
  | Hpcc   (** appendix B: loops open while in-flight < BDP; needs INT *)

type params = {
  sendbuf : Sendbuf.model;
  (** send-buffer capacity, and the first-write model identification
      reads *)
  lcp_ecn : bool;                 (** ECN on opportunistic packets *)
  ewd : bool;                     (** exponential window decreasing *)
  scheduling : bool;              (** mirror-symmetric tagging *)
  identification : bool;          (** buffer-aware identification *)
}

val default_params : params
(** Every component on, with {!Sendbuf.default}'s 2GB buffer. *)

val make : ?hcp:hcp -> ?params:params -> unit -> Endpoint.factory
(** IW10 PPT over the given primary loop (default [Dctcp]). The §6.3
    ablations (Figs. 15-18) and the Fig. 27 send-buffer sensitivity
    are [params] values with one component changed. *)
