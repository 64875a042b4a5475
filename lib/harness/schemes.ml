(* The catalogue of transports the experiments compare, with the
   fabric features each one needs (NDP wants trimming, HPCC wants
   inband telemetry, Aeolus wants selective dropping). *)

open Ppt_engine
open Ppt_transport
open Ppt_core

type t = {
  s_name : string;
  s_factory : Endpoint.factory;
  s_trim : bool;
  s_collect_int : bool;
  s_sel_drop : bool;
  s_buffer_override : int option;
  (* NDP is designed for very shallow buffers (a handful of packets per
     port); running it with its recommended buffering is part of the
     paper's comparison setup *)
}

let plain name factory =
  { s_name = name; s_factory = factory; s_trim = false;
    s_collect_int = false; s_sel_drop = false; s_buffer_override = None }

let ppt = plain "ppt" (Ppt.make ())
let dctcp = plain "dctcp" (Dctcp.make ())
let rc3 = plain "rc3" (Rc3.make ())
let pias = plain "pias" (Pias.make ())
let swift = plain "swift" (Swift.make ())
let ppt_swift = plain "ppt-swift" (Ppt.make ~hcp:Ppt.Swift ())
let homa = plain "homa" (Homa.make ())

let aeolus =
  { (plain "aeolus" (Homa.make_aeolus ())) with s_sel_drop = true }

let ndp =
  { (plain "ndp" (Ndp.make ())) with
    s_trim = true;
    s_buffer_override = Some (12 * Ppt_netsim.Packet.mtu) }
let hpcc = { (plain "hpcc" (Hpcc.make ())) with s_collect_int = true }

let tcp = plain "tcp" (Tcp.make ())
let tcp10 = plain "tcp-10" (Tcp.make_tcp10 ())
let halfback = plain "halfback" (Halfback.make ())
let expresspass = plain "expresspass" (Expresspass.make ())

let ppt_hpcc =
  { (plain "ppt-hpcc" (Ppt.make ~hcp:Ppt.Hpcc ())) with
    s_collect_int = true }

(* the §6.3 ablations (Figs. 15-18): one design component off *)
let ppt_with name params = plain name (Ppt.make ~params ())
let ppt_no_lcp_ecn =
  ppt_with "ppt-no-lcp-ecn" { Ppt.default_params with lcp_ecn = false }
let ppt_no_ewd = ppt_with "ppt-no-ewd" { Ppt.default_params with ewd = false }
let ppt_no_sched =
  ppt_with "ppt-no-sched" { Ppt.default_params with scheduling = false }
let ppt_no_ident =
  ppt_with "ppt-no-ident" { Ppt.default_params with identification = false }

(* the Fig. 27 send-buffer sensitivity, below the default 2 GB *)
let ppt_sendbuf bytes =
  ppt_with
    (Printf.sprintf "ppt-sb-%s"
       (if bytes >= Units.mb 1 then Printf.sprintf "%dM" (bytes / Units.mb 1)
        else Printf.sprintf "%dK" (bytes / 1000)))
    { Ppt.default_params with sendbuf = Sendbuf.make ~capacity:bytes () }

(* the §6.2 six-scheme comparison set *)
let headline = [ ndp; aeolus; homa; rc3; dctcp; ppt ]

(* the §6.1 testbed comparison set *)
let testbed_set = [ homa; rc3; dctcp; ppt ]

(* the chaos/fault-tolerance comparison set: one window transport per
   recovery style (tcp drop-tail, dctcp ECN, ppt two-loop) plus the
   receiver-driven pair (ndp trimming, homa grants) *)
let chaos_set = [ tcp; dctcp; ppt; ndp; homa ]

(* every transport in Table 1 that this repository implements *)
let table1_set =
  [ dctcp; tcp10; halfback; rc3; pias; hpcc; homa; aeolus; expresspass;
    ndp; ppt ]

(* Every scheme a name selects (`ppt_sim run --scheme`, `ppt_sim list`),
   in listing order. Registering a transport means adding it here. *)
let all =
  [ ppt; dctcp; rc3; pias; swift; ppt_swift; homa; aeolus; ndp; hpcc; tcp;
    tcp10; halfback; expresspass; ppt_hpcc; ppt_no_lcp_ecn; ppt_no_ewd;
    ppt_no_sched; ppt_no_ident ]

let find name = List.find_opt (fun s -> s.s_name = name) all
