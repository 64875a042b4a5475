(* A Memcached-style incast: 8 clients fan small responses into one
   server — the workload class the paper's Fig. 21 studies. Compares
   PPT against DCTCP and Homa on average and tail latency.

     dune exec examples/incast_memcached.exe *)

open Ppt_workload
open Ppt_harness

let () =
  let cfg =
    { (Config.oversub ~scale:2 ~n_flows:2000 ~load:0.5 ()) with
      Config.pattern = Config.Incast { n_senders = 8 } }
    |> Config.with_workload ~name:"memcached" Dists.memcached
  in
  Format.printf
    "memcached incast: 8 senders -> 1 receiver, %d request flows, \
     load %.1f@.@."
    cfg.Config.n_flows cfg.Config.load;
  let ppf = Format.std_formatter in
  Ppt_stats.Table.header ppf [ "avg-ms"; "p99-ms"; "drops" ];
  List.iter
    (fun scheme ->
       let r = Runner.run cfg scheme in
       let s = r.Runner.summary in
       Ppt_stats.Table.text_row ppf r.Runner.r_scheme
         [ Ppt_stats.Table.fmt_float s.Ppt_stats.Fct.small_avg;
           Ppt_stats.Table.fmt_float s.Ppt_stats.Fct.small_p99;
           string_of_int r.Runner.drops ])
    [ Schemes.ppt; Schemes.dctcp; Schemes.homa ];
  Format.printf
    "@.Under heavy incast there is little spare bandwidth, so PPT \
     cannot@.win — the point (paper §6.3, Fig. 23) is that it degrades \
     gracefully:@.ECN and the switch's dynamic buffer sharing squelch \
     the LCP loop@.before it can do real damage, and PPT lands near \
     DCTCP instead of@.collapsing.@."
