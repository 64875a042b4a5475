(* Deterministic fault injection end to end: the canonical link flap
   (the last host's access link down from 2ms to 5ms) on the testbed
   fabric, pristine run vs. faulted run. Every flow must still
   complete; the trace shows the down/up transitions, the packets the
   dead link discarded, and the RTO recoveries that covered them.

     dune exec examples/chaos_recovery.exe *)

open Ppt_harness
module F = Ppt_faults.Fault_spec
module Trace = Ppt_obs.Trace
module Summary = Ppt_obs.Summary

let () =
  let flap =
    match F.of_string "down@2ms-5ms:link:14" with
    | Ok s -> s
    | Error e -> failwith e
  in
  Format.printf
    "testbed fabric (15 hosts, 10G), 60 web-search flows on PPT@.\
     fault spec: %S@.@."
    (F.to_string flap);
  Format.printf "%-10s %10s %12s %11s %10s %12s@." "run" "completed"
    "fault-drops" "link-evts" "rto-fires" "avg-fct(ms)";
  List.iter
    (fun (label, faults) ->
       let cfg = Config.testbed ~n_flows:60 ~load:0.7 ~seed:11 () in
       let cfg =
         match faults with
         | None -> cfg
         | Some spec -> Config.with_faults spec cfg
       in
       let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
       let r =
         Trace.with_sink (Trace.Ring.sink ring) (fun () ->
             Runner.run cfg Schemes.ppt)
       in
       let s = Summary.of_list (Trace.Ring.to_list ring) in
       let tag name =
         match List.assoc_opt name (Summary.by_tag s) with
         | Some n -> n
         | None -> 0
       in
       Format.printf "%-10s %6d/%-3d %12d %11d %10d %12.3f@." label
         r.Runner.completed r.Runner.requested r.Runner.fault_drops
         (tag "link_down" + tag "link_up")
         (tag "rto_fire") r.Runner.summary.Ppt_stats.Fct.overall_avg;
       if r.Runner.completed <> r.Runner.requested then
         failwith (label ^ ": flows lost — liveness violated"))
    [ ("pristine", None); ("link-flap", Some flap) ];
  Format.printf
    "@.The flap costs retransmissions and tail latency, never \
     completions:@.every fault-dropped packet is covered by a \
     surviving retransmission@.(the invariant test/test_faults.ml \
     checks under random fault specs).@."
