(* The benchmark's workloads; BENCHMARK.json and README.md say why
   each was chosen. Each run of a workload simulates a fixed number of
   independent instances of it, instance [i] seeded with
   [instance_seed ~seed i]; averaging over instances narrows the
   seed-to-seed spread of whole-run figures. Instance 0 of the default
   seed is the configuration the repository's figures use. *)

open Ppt_engine
open Ppt_harness

type reference = { digest : string; events : int; hops : int }

type t = {
  name : string;
  flows : int;             (* flows per instance *)
  instance_s : float;
  (* rough host seconds of one instance on a 2-core box; sizes a run to
     [--seconds] *)
  traced : bool;
  (* binary event trace plus port probes, read back and summarized *)
  config : seed:int -> flows:int -> Config.t;
  references : reference array;
  (* per instance, for [default_seed] at the default flow count *)
}

let scheme = Schemes.ppt
let default_seed = 1
let probe_interval = Units.us 100

let instance_seed ~seed i = seed + (i * 7919)

let fabric ~seed ~flows =
  Config.oversub ~scale:4 ~n_flows:flows ~load:0.5 ~seed ()

let incast ~seed ~flows =
  { (Config.testbed ~n_flows:flows ~load:0.5 ~seed ()) with
    Config.pattern = Config.Incast { n_senders = 14 } }
  |> Config.with_workload ~name:"memcached" Ppt_workload.Dists.memcached

let traced ~seed ~flows =
  Config.with_trace ~fmt:Config.Bin ~probe_interval (fabric ~seed ~flows)

let all = [
  { name = "fabric-websearch";
    flows = 800; instance_s = 8.0; traced = false; config = fabric;
    references =
      [|
        { digest = "5cdd1580c718d092182a24ed1d1edd27";
          events = 12_239_709; hops = 6_075_376 };
        { digest = "25d334cfc519fbf34041cc47c8f998d7";
          events = 12_709_242; hops = 6_328_957 };
        { digest = "bf5e863819011978c9263be7825d5d03";
          events = 16_161_694; hops = 8_034_597 };
        { digest = "1bd33969944f5a739b15a239b01bfb78";
          events = 12_190_663; hops = 6_057_622 };
        { digest = "6c03b7c6df82097b04b01833ac3abd62";
          events = 10_770_901; hops = 5_357_867 };
      |] };
  { name = "incast-memcached";
    flows = 200_000; instance_s = 5.8; traced = false; config = incast;
    references =
      [|
        { digest = "6b1dde9a9deb72138c128ac61acd3690";
          events = 5_905_928; hops = 2_638_424 };
        { digest = "6fd13648308c67036eb3416c5a96e85d";
          events = 5_833_809; hops = 2_605_177 };
        { digest = "b6e0d64326b5dbe4710520d0056cf9f1";
          events = 5_873_386; hops = 2_623_434 };
        { digest = "f4eaa1800f5207ae061eb254d9202b95";
          events = 5_877_805; hops = 2_625_363 };
        { digest = "a2216060ba9d0feba6ff45da9b1842e5";
          events = 5_867_354; hops = 2_621_160 };
        { digest = "64d77650ec9486f78200ea58258ebd1f";
          events = 5_938_559; hops = 2_653_470 };
        { digest = "9ef5e140a4e0acff404fe6cb3fce65ee";
          events = 5_944_581; hops = 2_656_144 };
        { digest = "dd06919313a047ea81c0d749e537873a";
          events = 5_961_647; hops = 2_664_005 };
        { digest = "99d0c0c22ec4ec3059e76bf7c99bb489";
          events = 5_894_911; hops = 2_633_034 };
      |] };
  { name = "fabric-traced";
    flows = 200; instance_s = 7.0; traced = true; config = traced;
    references =
      [|
        { digest = "4c2592b66bff4d32d184215074f0d334";
          events = 2_440_268; hops = 1_215_912 };
        { digest = "5edd47028dd3427b4f63e7b5fdd403a0";
          events = 3_887_057; hops = 1_933_521 };
        { digest = "cf2203411f1483f998c544fbd9eb6020";
          events = 4_557_489; hops = 2_271_289 };
        { digest = "f091a8112cab807eb280abc8238a0472";
          events = 2_748_490; hops = 1_370_717 };
        { digest = "3e3cebc16f8085394837e402cfc6d566";
          events = 2_479_455; hops = 1_237_285 };
        { digest = "ac8fef08af57521b7d137bcd6b9ca4a6";
          events = 2_928_951; hops = 1_459_316 };
        { digest = "b67e818901c7bfc0af4c975d9b7041ac";
          events = 2_210_925; hops = 1_101_120 };
        { digest = "c9ed893265f634d682dd68a958d08177";
          events = 2_378_327; hops = 1_186_881 };
      |] };
]

let find name = List.find_opt (fun w -> w.name = name) all

(* Instances in a run of about [seconds] host seconds. *)
let instances w ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds /. w.instance_s)))
