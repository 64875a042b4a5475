(* See journal.mli. *)

let magic = "ppt-sweep-journal"
(* Bump whenever the marshalled payload type changes, so a stale
   journal from an older build is rejected instead of unmarshalled
   into the wrong type. v2: shard payloads carry a Gc snapshot. v3:
   every frame carries its payload's digest. v4: shard payloads drop
   the Gc snapshot again. v5: a shard is one simulation, its payload
   the run's outcome and CPU seconds. v6: an entry is [(key, payload)],
   without the unit's wall seconds. *)
let version = 6

type t = { oc : out_channel }

type header = { h_magic : string; h_version : int; h_keys : string list }

(* Read every recoverable entry; stops silently at the first
   truncated or corrupt frame (the tail a kill may have left). *)
let load_entries ic =
  let rec go acc =
    match Frame.read_channel ic with
    | None -> List.rev acc
    | Some entry -> go (entry :: acc)
  in
  go []

let try_resume path keys =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        match (Frame.read_channel ic : header option) with
        | Some h
          when h.h_magic = magic && h.h_version = version
               && h.h_keys = keys ->
          Some (load_entries ic)
        | _ -> None)

let open_ ~path ~keys ~resume =
  let entries =
    if resume then try_resume path keys else None
  in
  match entries with
  | Some entries ->
    let oc =
      open_out_gen [ Open_append; Open_binary ] 0o644 path
    in
    ({ oc }, entries)
  | None ->
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
        0o644 path
    in
    Frame.write_channel oc { h_magic = magic; h_version = version;
                             h_keys = keys };
    flush oc;
    ({ oc }, [])

let append t ~key v =
  Frame.write_channel t.oc (key, v);
  flush t.oc

let close t = close_out_noerr t.oc
