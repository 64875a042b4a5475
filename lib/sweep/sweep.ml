(* See sweep.mli for the contract. Shape of the implementation:

   - parent forks up to [jobs] workers; each worker inherits the unit
     array and loops: read a unit index from its request pipe, run the
     unit, send [(index, result)] back as a frame, repeat;
   - the parent multiplexes the response pipes with [select], keeps a
     queue of pending unit indexes, and re-dispatches as workers free
     up, so shard imbalance never idles a worker while work remains;
   - deaths are detected by EOF on a worker's response pipe (every
     child closes the pipe ends of its siblings, so an EOF really
     means that worker is gone), timeouts by a deadline kept per
     in-flight unit; both re-queue the unit for one retry;
   - workers exit through [Unix._exit] so the parent's buffered
     channels, inherited at fork time, are never double-flushed. *)

type 'a unit_spec = {
  key : string;
  run : unit -> 'a;
}

type 'a outcome =
  | Done of 'a
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

(* Extra attempts a unit gets after its worker dies or times out. *)
let retries = 1

(* What a worker sends back per unit: index, result-or-exception. *)
type 'a response = int * ('a, string) result

type worker = {
  w_pid : int;
  w_req : Unix.file_descr;    (* parent writes unit indexes *)
  w_resp : Unix.file_descr;   (* parent reads response frames *)
  w_dec : Frame.decoder;
  mutable w_job : int option;
  mutable w_deadline : float; (* infinity = no timeout armed *)
}

let quit_index = -1

let worker_loop (units : 'a unit_spec array) req resp =
  let rec loop () =
    let idx = try Frame.read_fd req with End_of_file -> quit_index in
    if idx = quit_index then Unix._exit 0
    else begin
      let u = units.(idx) in
      let res =
        try Ok (u.run ())
        with e -> Error (Printexc.to_string e)
      in
      (Frame.write_fd resp ((idx, res) : _ response) : unit);
      loop ()
    end
  in
  (try loop () with _ -> Unix._exit 125)

(* Mutable sweep state shared by the serial and parallel paths. *)
type 'a state = {
  units : 'a unit_spec array;
  slots : ('a outcome * bool) option array;  (* outcome, cached *)
  mutable n_done : int;
  attempts : int array;
  pending : int Queue.t;
  journal : Journal.t option;
  progress : string -> unit;
}

let complete st i outcome ~cached =
  if st.slots.(i) = None then begin
    st.slots.(i) <- Some (outcome, cached);
    st.n_done <- st.n_done + 1;
    (match (outcome, st.journal, cached) with
     | Done v, Some j, false ->
       Journal.append j ~key:st.units.(i).key v
     | _ -> ());
    st.progress st.units.(i).key
  end

let requeue st i reason =
  if st.attempts.(i) > retries then
    complete st i (Failed reason) ~cached:false
  else Queue.add i st.pending

(* --- parallel pool -------------------------------------------------- *)

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid)
  with
  | Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn st ~siblings =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  (* the worker must not inherit write ends of sibling pipes, or EOF
     would stop meaning "that worker died" *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    close_noerr req_w;
    close_noerr resp_r;
    List.iter
      (fun w -> close_noerr w.w_req; close_noerr w.w_resp)
      siblings;
    worker_loop st.units req_r resp_w
  | pid ->
    close_noerr req_r;
    close_noerr resp_w;
    { w_pid = pid; w_req = req_w; w_resp = resp_r;
      w_dec = Frame.decoder (); w_job = None; w_deadline = infinity }

let kill_worker w =
  (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_noerr w.w_req;
  close_noerr w.w_resp;
  waitpid_retry w.w_pid

(* Ask an idle worker to exit and reap it. *)
let retire w =
  (try Frame.write_fd w.w_req quit_index with _ -> ());
  close_noerr w.w_req;
  close_noerr w.w_resp;
  waitpid_retry w.w_pid

let run_parallel st ~jobs ~timeout =
  let workers = ref [] in
  let drop w = workers := List.filter (fun x -> x != w) !workers in
  let now () = Unix.gettimeofday () in
  let dispatch w =
    match Queue.take_opt st.pending with
    | None -> ()
    | Some i ->
      st.attempts.(i) <- st.attempts.(i) + 1;
      w.w_job <- Some i;
      w.w_deadline <-
        (match timeout with
         | Some t -> now () +. t
         | None -> infinity);
      (try Frame.write_fd w.w_req i
       with _ ->
         (* worker already dead; the EOF path will requeue *)
         ())
  in
  let on_death w reason =
    drop w;
    close_noerr w.w_req;
    close_noerr w.w_resp;
    waitpid_retry w.w_pid;
    match w.w_job with
    | Some i -> requeue st i reason
    | None -> ()
  in
  let on_response w ((i, res) : _ response) =
    w.w_job <- None;
    w.w_deadline <- infinity;
    (match res with
     | Ok v -> complete st i (Done v) ~cached:false
     | Error msg -> complete st i (Failed msg) ~cached:false)
  in
  let on_readable w =
    let chunk = Bytes.create 65536 in
    match Unix.read w.w_resp chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | 0 -> on_death w "worker process died"
    | n ->
      Frame.feed w.w_dec chunk n;
      let rec drain () =
        match Frame.next w.w_dec with
        | Some resp -> on_response w resp; drain ()
        | None -> ()
      in
      drain ()
  in
  let rec select_retry fds tmo =
    try Unix.select fds [] [] tmo
    with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds tmo
  in
  let n = Array.length st.units in
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
        List.iter kill_worker !workers;
        workers := [];
        match old_sigpipe with
        | Some h -> (try Sys.set_signal Sys.sigpipe h with _ -> ())
        | None -> ())
    (fun () ->
       while st.n_done < n do
         (* keep the pool topped up; retire the idle when the queue is
            dry (in-flight units may still re-queue, which spawns
            fresh workers next round) *)
         List.iter
           (fun w ->
              if w.w_job = None then begin
                if Queue.is_empty st.pending then begin
                  drop w;
                  retire w
                end else dispatch w
              end)
           !workers;
         while
           List.length !workers < jobs
           && not (Queue.is_empty st.pending)
         do
           let w = spawn st ~siblings:!workers in
           workers := w :: !workers;
           dispatch w
         done;
         if !workers = [] then begin
           if st.n_done < n then
             (* every remaining unit exhausted its retries *)
             Array.iteri
               (fun i slot ->
                  if slot = None then
                    complete st i (Failed "unit never completed")
                      ~cached:false)
               st.slots
         end else begin
           let deadline =
             List.fold_left
               (fun acc w -> min acc w.w_deadline)
               infinity !workers
           in
           let tmo =
             if deadline = infinity then (-1.0)
             else max 0.01 (deadline -. now ())
           in
           let fds = List.map (fun w -> w.w_resp) !workers in
           let readable, _, _ = select_retry fds tmo in
           List.iter
             (fun w ->
                if List.memq w.w_resp readable then on_readable w)
             !workers;
           let t = now () in
           List.iter
             (fun w ->
                if w.w_job <> None && t > w.w_deadline then begin
                  drop w;
                  let i = match w.w_job with Some i -> i | None -> 0 in
                  kill_worker w;
                  requeue st i
                    (Printf.sprintf "unit %s timed out" st.units.(i).key)
                end)
             !workers
         end
       done)

(* --- serial path ---------------------------------------------------- *)

let run_serial st =
  Queue.iter
    (fun i ->
       st.attempts.(i) <- st.attempts.(i) + 1;
       let res =
         try Done (st.units.(i).run ())
         with e -> Failed (Printexc.to_string e)
       in
       complete st i res ~cached:false)
    st.pending;
  Queue.clear st.pending

(* --- entry point ---------------------------------------------------- *)

let run ?(jobs = 1) ?timeout ?journal ?(resume = false)
    ?(progress = ignore) specs =
  let units = Array.of_list specs in
  let n = Array.length units in
  let keys = List.map (fun u -> u.key) specs in
  let tbl = Hashtbl.create (2 * n) in
  List.iter
    (fun k ->
       if Hashtbl.mem tbl k then
         invalid_arg ("Sweep.run: duplicate unit key " ^ k);
       Hashtbl.add tbl k ())
    keys;
  let jnl, cached =
    match journal with
    | None -> (None, [])
    | Some path ->
      let j, entries = Journal.open_ ~path ~keys ~resume in
      (Some j, entries)
  in
  let st =
    { units;
      slots = Array.make n None;
      n_done = 0;
      attempts = Array.make n 0;
      pending = Queue.create ();
      journal = jnl;
      progress }
  in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i u -> Hashtbl.replace index_of u.key i) units;
  List.iter
    (fun (key, v) ->
       match Hashtbl.find_opt index_of key with
       | Some i when st.slots.(i) = None ->
         st.slots.(i) <- Some (Done v, true);
         st.n_done <- st.n_done + 1
       | _ -> ())
    cached;
  let resumed = st.n_done in
  Array.iteri
    (fun i slot -> if slot = None then Queue.add i st.pending)
    st.slots;
  Fun.protect
    ~finally:(fun () ->
        match jnl with Some j -> Journal.close j | None -> ())
    (fun () ->
       if jobs <= 1 then run_serial st
       else run_parallel st ~jobs ~timeout);
  let shards =
    Array.to_list
      (Array.mapi
         (fun i slot ->
            match slot with
            | Some (outcome, cached) ->
              { s_key = units.(i).key; s_outcome = outcome;
                s_attempts = st.attempts.(i); s_cached = cached }
            | None ->
              { s_key = units.(i).key;
                s_outcome = Failed "unit never ran";
                s_attempts = st.attempts.(i); s_cached = false })
         st.slots)
  in
  { shards; r_resumed = resumed }
