(* See sweep.mli for the contract. Shape of the implementation:

   - the parent forks one child per unit, at most [jobs] at once, and
     blocks in [Unix.wait]; a child inherits the unit closures, runs
     its unit, writes the result file and leaves through [Unix._exit],
     so the parent's buffered channels, inherited at fork time, are
     never flushed twice;
   - the exit status says what happened: 0 = an [Ok] file written,
     1 = an [Error] file written; a signal (the timeout's SIGALRM
     among them) or an exit without a file re-runs the unit once. *)

type 'a unit_spec = {
  key : string;
  run : unit -> 'a;
}

type 'a outcome =
  | Done of (unit -> 'a)
  | Failed of string

type 'a shard = {
  s_key : string;
  s_outcome : 'a outcome;
  s_attempts : int;
  s_cached : bool;
}

type 'a report = {
  shards : 'a shard list;
  r_resumed : int;
}

(* Extra attempts a unit gets after its child dies or times out. *)
let retries = 1

(* --- result files --------------------------------------------------- *)

let magic = "ppt-sweep-result"
(* Bump whenever the marshalled payload type changes, so a file an
   older build wrote is re-run instead of unmarshalled at the wrong
   type. *)
let version = 2

let file dir key = Filename.concat dir (Digest.to_hex (Digest.string key))

let header key = Printf.sprintf "%s %d\n%s\n" magic version key

let write dir key (res : (_, string) result) =
  let path = file dir key in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let payload = Marshal.to_string res [] in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (header key);
      output_string oc (Digest.to_hex (Digest.string payload));
      output_char oc '\n';
      output_string oc payload);
  Sys.rename tmp path

(* The result [dir] holds for [key], or [None] if its file is missing,
   cut short, damaged, or of another version or key. *)
let read dir key : (_, string) result option =
  match In_channel.with_open_bin (file dir key) In_channel.input_all with
  | exception Sys_error _ -> None
  | data ->
    let h = String.length (header key) in
    let ofs = h + 33 (* hex digest and newline *) in
    let len = String.length data in
    if len < ofs
    || not (String.starts_with ~prefix:(header key) data)
    || data.[ofs - 1] <> '\n'
    || String.sub data h 32
       <> Digest.to_hex (Digest.substring data ofs (len - ofs))
    then None
    else Some (Marshal.from_string data ofs)

let load dir key () =
  match read dir key with
  | Some (Ok v) -> v
  | _ -> failwith ("Sweep: the result file of " ^ key ^ " is gone or damaged")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
  end

(* --- running units -------------------------------------------------- *)

type 'a state = {
  units : 'a unit_spec array;
  dir : string;
  outcomes : ('a outcome * bool) option array;  (* outcome, cached *)
  attempts : int array;
  pending : int Queue.t;
  progress : string -> unit;
}

let complete st i outcome =
  st.outcomes.(i) <- Some (outcome, false);
  st.progress st.units.(i).key

let requeue st i reason =
  if st.attempts.(i) > retries then complete st i (Failed reason)
  else Queue.add i st.pending

(* Run unit [i] in this process and write its result file; the value
   itself is not kept. *)
let exec st i =
  let u = st.units.(i) in
  let res = try Ok (u.run ()) with e -> Error (Printexc.to_string e) in
  write st.dir u.key res;
  Result.map ignore res

let run_serial st =
  Queue.iter
    (fun i ->
       st.attempts.(i) <- 1;
       complete st i
         (match exec st i with
          | Ok () -> Done (load st.dir st.units.(i).key)
          | Error msg -> Failed msg))
    st.pending;
  Queue.clear st.pending

let fork_child st i ~timeout =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       Option.iter
         (fun t ->
            Sys.set_signal Sys.sigalrm Sys.Signal_default;
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_interval = 0.; it_value = t }))
         timeout;
       Unix._exit (match exec st i with Ok () -> 0 | Error _ -> 1)
     with _ -> Unix._exit 125)
  | pid -> pid

let rec wait_retry f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> wait_retry f

let run_parallel st ~jobs ~timeout =
  let running = Hashtbl.create jobs in  (* pid -> unit index *)
  let reap i status =
    let key = st.units.(i).key in
    match status with
    | Unix.WEXITED 0 when Sys.file_exists (file st.dir key) ->
      complete st i (Done (load st.dir key))
    | Unix.WEXITED 1 when Sys.file_exists (file st.dir key) ->
      (match read st.dir key with
       | Some (Error msg) -> complete st i (Failed msg)
       | _ -> requeue st i "child wrote a damaged result file")
    | Unix.WSIGNALED s when s = Sys.sigalrm ->
      requeue st i (Printf.sprintf "unit %s timed out" key)
    | _ -> requeue st i "child process died"
  in
  Fun.protect
    ~finally:(fun () ->
        Hashtbl.iter
          (fun pid _ ->
             (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
             try ignore (wait_retry (fun () -> Unix.waitpid [] pid))
             with Unix.Unix_error _ -> ())
          running)
    (fun () ->
       while not (Queue.is_empty st.pending && Hashtbl.length running = 0) do
         while
           Hashtbl.length running < jobs && not (Queue.is_empty st.pending)
         do
           let i = Queue.pop st.pending in
           st.attempts.(i) <- st.attempts.(i) + 1;
           Hashtbl.replace running (fork_child st i ~timeout) i
         done;
         let pid, status = wait_retry Unix.wait in
         match Hashtbl.find_opt running pid with
         | Some i -> Hashtbl.remove running pid; reap i status
         | None -> ()  (* a child the sweep did not fork *)
       done)

(* --- entry point ---------------------------------------------------- *)

let run ?(jobs = 1) ?timeout ~dir ?(resume = false) ?(progress = ignore)
    specs =
  let units = Array.of_list specs in
  let n = Array.length units in
  let seen = Hashtbl.create (2 * n) in
  Array.iter
    (fun u ->
       if Hashtbl.mem seen u.key then
         invalid_arg ("Sweep.run: duplicate unit key " ^ u.key);
       Hashtbl.add seen u.key ())
    units;
  if jobs <= 1 && Option.is_some timeout then
    invalid_arg "Sweep.run: a timeout needs jobs > 1";
  mkdir_p dir;
  if not resume then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let st =
    { units; dir;
      outcomes = Array.make n None;
      attempts = Array.make n 0;
      pending = Queue.create ();
      progress }
  in
  Array.iteri
    (fun i u ->
       match if resume then read dir u.key else None with
       | Some (Ok _) -> st.outcomes.(i) <- Some (Done (load dir u.key), true)
       | _ ->
         (* a unit to run has no file, so no stale one can pass for its
            result *)
         (try Sys.remove (file dir u.key) with Sys_error _ -> ());
         Queue.add i st.pending)
    units;
  let resumed = n - Queue.length st.pending in
  if jobs <= 1 then run_serial st else run_parallel st ~jobs ~timeout;
  let shards =
    List.mapi
      (fun i u ->
         let outcome, cached = Option.get st.outcomes.(i) in
         { s_key = u.key; s_outcome = outcome;
           s_attempts = st.attempts.(i); s_cached = cached })
      specs
  in
  { shards; r_resumed = resumed }
