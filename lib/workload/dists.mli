(** The paper's three evaluation workloads as empirical CDFs. *)

val web_search : Cdf.t
(** Web search [34]: heavy-tailed, ~62% small flows, ~1.6MB mean. *)

val data_mining : Cdf.t
(** Data mining (VL2) [13]: polarized, ~83% small flows, ~7.4MB mean. *)

val memcached : Cdf.t
(** Facebook memcached W1 [8]: >70% of flows under 1000B, all <100KB. *)

type named = { dist_name : string; cdf : Cdf.t }

val all : named list
val by_name : string -> Cdf.t
