(* The three realistic workloads of the paper's evaluation.

   - Web search: the DCTCP/web-search distribution [34]; Table 2 of the
     paper reports 62% of flows at 0-100KB and a 1.6MB average size.
   - Data mining: VL2 [13]; 83% at 0-100KB, 7.41MB average, with sizes
     polarized between sub-KB flows and ~100MB flows.
   - Memcached: Facebook's W1 workload [8], also used by Homa; >70% of
     flows below 1000B, everything below 100KB.

   Point sets are calibrated so the computed Table 2 statistics match
   the paper's; `bench tab2` prints the computed values. *)

let web_search =
  Cdf.create
    [ (0., 0.0);
      (1_000., 0.10);
      (5_000., 0.25);
      (10_000., 0.35);
      (30_000., 0.48);
      (60_000., 0.55);
      (100_000., 0.62);
      (300_000., 0.70);
      (1_000_000., 0.79);
      (3_000_000., 0.88);
      (10_000_000., 0.965);
      (30_000_000., 1.0) ]

let data_mining =
  Cdf.create
    [ (0., 0.0);
      (110., 0.12);
      (180., 0.22);
      (260., 0.32);
      (560., 0.42);
      (900., 0.51);
      (1_100., 0.60);
      (5_000., 0.70);
      (35_000., 0.80);
      (100_000., 0.83);
      (500_000., 0.88);
      (3_000_000., 0.92);
      (20_000_000., 0.96);
      (100_000_000., 0.9908);
      (1_000_000_000., 1.0) ]

let memcached =
  Cdf.create
    [ (0., 0.0);
      (64., 0.10);
      (128., 0.30);
      (256., 0.50);
      (512., 0.63);
      (1_000., 0.72);
      (2_000., 0.80);
      (4_000., 0.86);
      (10_000., 0.93);
      (30_000., 0.975);
      (100_000., 1.0) ]

type named = { dist_name : string; cdf : Cdf.t }

let all =
  [ { dist_name = "web-search"; cdf = web_search };
    { dist_name = "data-mining"; cdf = data_mining };
    { dist_name = "memcached"; cdf = memcached } ]

let by_name name =
  match List.find_opt (fun d -> d.dist_name = name) all with
  | Some d -> d.cdf
  | None -> invalid_arg ("Dists.by_name: unknown workload " ^ name)
