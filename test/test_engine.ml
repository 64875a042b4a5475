(* Unit and property tests for the discrete-event engine. *)

open Ppt_engine

let check = Alcotest.check

(* Pop everything left, as (key, value) pairs in pop order. *)
let heap_drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let k = Heap.top_key h in
      go ((k, Heap.pop_exn h) :: acc)
  in
  go []

let test_heap_order () =
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.push h ~key:k ~tie:i i)
    [ 5; 3; 8; 1; 9; 3; 0 ];
  check (Alcotest.list Alcotest.int) "sorted" [ 0; 1; 3; 3; 5; 8; 9 ]
    (List.map fst (heap_drain h))

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~key:7 ~tie:0 100;
  Heap.push h ~key:7 ~tie:1 200;
  Heap.push h ~key:7 ~tie:2 300;
  check (Alcotest.list Alcotest.int) "fifo" [ 100; 200; 300 ]
    (List.map snd (heap_drain h))

(* The hot-loop entry points: [top_key] peeks, [pop_exn] pops (and must
   refuse an empty heap), [pop_upto] pops only up to a key limit. *)
let test_heap_top_pop_exn () =
  let h = Heap.create () in
  (try
     ignore (Heap.pop_exn h);
     Alcotest.fail "pop_exn on empty heap did not raise"
   with Invalid_argument _ -> ());
  check Alcotest.int "pop_upto on empty heap" (-1) (Heap.pop_upto h max_int);
  Heap.push h ~key:5 ~tie:0 50;
  Heap.push h ~key:3 ~tie:1 31;
  Heap.push h ~key:9 ~tie:2 90;
  Heap.push h ~key:3 ~tie:3 32;
  Heap.push h ~key:1 ~tie:4 10;
  check Alcotest.int "top_key is the minimum" 1 (Heap.top_key h);
  check Alcotest.int "pop_upto below the minimum" (-1) (Heap.pop_upto h 0);
  check Alcotest.int "pop_upto at the minimum" 10 (Heap.pop_upto h 1);
  let order = List.init 4 (fun _ -> Heap.pop_exn h) in
  check (Alcotest.list Alcotest.int)
    "pop_exn ascending with FIFO ties" [ 31; 32; 50; 90 ] order;
  check Alcotest.bool "drained" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order"
    ~count:200
    QCheck.(list small_int)
    (fun keys ->
       let h = Heap.create () in
       List.iteri (fun i k -> Heap.push h ~key:k ~tie:i k) keys;
       List.map fst (heap_drain h) = List.sort compare keys)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim 30 (fun () -> log := 3 :: !log));
  ignore (Sim.schedule_at sim 10 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule_at sim 20 (fun () -> log := 2 :: !log));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let t = Sim.schedule_at sim 10 (fun () -> fired := true) in
  Sim.cancel sim t;
  Sim.run sim;
  check Alcotest.bool "cancelled timer must not fire" false !fired

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let hits = ref 0 in
  let rec tick n () =
    incr hits;
    if n > 0 then ignore (Sim.schedule sim ~after:5 (tick (n - 1)))
  in
  ignore (Sim.schedule_at sim 0 (tick 9));
  Sim.run sim;
  check Alcotest.int "chain of events" 10 !hits;
  check Alcotest.int "final time" 45 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule_at sim (i * 10) (fun () -> incr fired))
  done;
  Sim.run ~until:50 sim;
  check Alcotest.int "only events before horizon" 5 !fired

(* Regression: an event beyond [until] must survive the horizon check
   (it used to be popped and discarded), so a later [run] resumes
   exactly where the previous one stopped. *)
let test_sim_until_resume () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore (Sim.schedule_at sim 60 (fun () -> fired := 60 :: !fired));
  ignore (Sim.schedule_at sim 40 (fun () -> fired := 40 :: !fired));
  Sim.run ~until:50 sim;
  check (Alcotest.list Alcotest.int) "only pre-horizon events" [ 40 ]
    (List.rev !fired);
  check Alcotest.int "clock parked at horizon" 50 (Sim.now sim);
  check Alcotest.int "post-horizon event still pending" 1
    (Sim.pending sim);
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "resumed run fires it" [ 40; 60 ]
    (List.rev !fired);
  check Alcotest.int "clock at last event" 60 (Sim.now sim)

let test_sim_cancel_accounting () =
  let sim = Sim.create () in
  let ts = List.init 10 (fun i -> Sim.schedule_at sim (10 + i) ignore) in
  List.iteri (fun i t -> if i mod 2 = 0 then Sim.cancel sim t) ts;
  check Alcotest.int "live timers" 5 (Sim.pending sim);
  check Alcotest.int "dead slots" 5 (Sim.cancelled_pending sim);
  Sim.run sim;
  check Alcotest.int "drained" 0 (Sim.pending sim);
  check Alcotest.int "dead slots reclaimed" 0 (Sim.cancelled_pending sim)

(* Regression: [run ~until] with a horizon before the clock used to
   rewind the clock to that horizon, after which a timer between the
   two times was accepted and fired in the past. *)
let test_sim_until_past_raises () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore (Sim.schedule_at sim 500 (fun () -> fired := Sim.now sim :: !fired));
  Sim.run ~until:300 sim;
  check Alcotest.int "clock parked at horizon" 300 (Sim.now sim);
  (try
     Sim.run ~until:100 sim;
     Alcotest.fail "run ~until before now did not raise"
   with Invalid_argument _ -> ());
  check Alcotest.int "clock not rewound" 300 (Sim.now sim);
  (try
     ignore (Sim.schedule_at sim 150 ignore);
     Alcotest.fail "a timer before the clock was accepted"
   with Invalid_argument _ -> ());
  Sim.run ~until:300 sim;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "later timer fires on time" [ 500 ]
    !fired

(* A handle outlives its timer: once the timer fired, its storage is
   handed to the next timer scheduled. Cancelling the stale handle must
   leave that new occupant alone. *)
let test_sim_cancel_recycled () =
  let sim = Sim.create () in
  let first = Sim.schedule_at sim 10 ignore in
  Sim.run sim;
  let fired = ref false in
  let (_ : int) = Sim.schedule_at sim 20 (fun () -> fired := true) in
  Sim.cancel sim first;
  check Alcotest.int "new occupant still live" 1 (Sim.pending sim);
  check Alcotest.int "nothing counted cancelled" 0
    (Sim.cancelled_pending sim);
  Sim.run sim;
  check Alcotest.bool "new occupant fired" true !fired;
  (* A cancelled timer's storage is recycled too, once it leaves the
     queue. *)
  let dead = Sim.schedule_at sim 30 (fun () -> Alcotest.fail "fired") in
  Sim.cancel sim dead;
  Sim.run sim;
  let hits = ref 0 in
  let (_ : int) = Sim.schedule_at sim 40 (fun () -> incr hits) in
  Sim.cancel sim dead;
  Sim.run sim;
  check Alcotest.int "second occupant fired" 1 !hits;
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* A callback cancelling its own (already firing) timer is a no-op,
   including when the callback first schedules another timer that may
   take over its storage. *)
let test_sim_cancel_self () =
  let sim = Sim.create () in
  let log = ref [] in
  let self = ref None in
  let h =
    Sim.schedule_at sim 10 (fun () ->
        log := "self" :: !log;
        let (_ : int) =
          Sim.schedule_at sim 15 (fun () -> log := "next" :: !log)
        in
        Option.iter (Sim.cancel sim) !self)
  in
  self := Some h;
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "both fired" [ "self"; "next" ]
    (List.rev !log);
  check Alcotest.int "no dead timer counted" 0 (Sim.cancelled_pending sim);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* Far more timers than a bucket's usual population, all inside one
   64 ns window, in shuffled time order with many exact ties: they must
   pop by time, then by scheduling order. *)
let test_sim_dense_bucket () =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let n = 10_000 in
  let keys = Array.init n (fun _ -> 1_024 + Rng.int rng 64) in
  let log = ref [] in
  Array.iteri
    (fun i k ->
       ignore (Sim.schedule_at sim k (fun () -> log := (k, i) :: !log)))
    keys;
  Sim.run sim;
  let expected =
    List.sort compare (List.mapi (fun i k -> (k, i)) (Array.to_list keys))
  in
  check Alcotest.int "all fired" n (List.length !log);
  check Alcotest.bool "(time, tie) order" true (List.rev !log = expected)

(* Timers past the wheel's span sit in the overflow tier and move into
   the wheel as the window reaches them. Pausing with [run ~until] and
   scheduling more timers, near and far, before resuming must not
   disturb the order. *)
let test_sim_overflow_across_pause () =
  let sim = Sim.create () in
  let log = ref [] in
  let at k = ignore (Sim.schedule_at sim k (fun () -> log := k :: !log)) in
  List.iter at [ 5_000_000; 1_000_000; 300_000; 262_144; 262_143; 50 ];
  Sim.run ~until:400_000 sim;
  check (Alcotest.list Alcotest.int) "before the pause"
    [ 50; 262_143; 262_144; 300_000 ] (List.rev !log);
  check Alcotest.int "clock at the pause" 400_000 (Sim.now sim);
  List.iter at [ 4_999_999; 1_000_000; 400_000; 900_000; 2_000_000 ];
  Sim.run ~until:1_000_000 sim;
  check Alcotest.int "clock at the second pause" 1_000_000 (Sim.now sim);
  at 1_000_001;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "every timer in time order"
    [ 50; 262_143; 262_144; 300_000; 400_000; 900_000; 1_000_000;
      1_000_000; 1_000_001; 2_000_000; 4_999_999; 5_000_000 ]
    (List.rev !log);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* One nanosecond can hold a timer that waited in the overflow tier
   (scheduled first, so the oldest tie) next to timers scheduled
   directly at the same time once the window reached it, before and
   after its bucket became the current one, and from a callback at
   that very nanosecond. They must fire strictly by scheduling order. *)
let test_sim_same_ns_migrated_and_direct () =
  let sim = Sim.create () in
  let log = ref [] in
  let at k name =
    ignore (Sim.schedule_at sim k (fun () -> log := name :: !log))
  in
  let t = 1_000_000 in
  at t "migrated";
  ignore (Sim.schedule_at sim 10 ignore);
  Sim.run ~until:900_000 sim;
  at t "direct-1";
  at t "direct-2";
  ignore
    (Sim.schedule_at sim (t - 5) (fun () ->
         log := "pre" :: !log;
         at t "from-bucket"));
  ignore
    (Sim.schedule_at sim t (fun () ->
         log := "direct-3" :: !log;
         at t "from-same-ns"));
  at (t + 1) "next-ns";
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "FIFO by tie within one ns"
    [ "pre"; "migrated"; "direct-1"; "direct-2"; "direct-3";
      "from-bucket"; "from-same-ns"; "next-ns" ]
    (List.rev !log);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* [run ~until] stops with the clock at the horizon, short of the
   next queued event, and the window never moves past the horizon. A
   timer then scheduled between the horizon and that event lies below
   every queued time and must pop first, whether it lands before the
   event's bucket or inside it; ties among such timers stay FIFO. *)
let test_sim_until_before_current_bucket () =
  let sim = Sim.create () in
  let log = ref [] in
  let at k = ignore (Sim.schedule_at sim k (fun () -> log := k :: !log)) in
  at 200;
  at 250;
  Sim.run ~until:100 sim;
  check Alcotest.int "clock parked at horizon" 100 (Sim.now sim);
  check (Alcotest.list Alcotest.int) "nothing fired yet" [] !log;
  List.iter at [ 150; 120; 150; 100; 192; 199 ];
  Sim.run ~until:130 sim;
  check (Alcotest.list Alcotest.int) "below-bucket timers first"
    [ 100; 120 ] (List.rev !log);
  at 131;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "then the rest in time order"
    [ 100; 120; 131; 150; 150; 192; 199; 200; 250 ] (List.rev !log);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* Timers cancelled while their bucket is the one being drained, in
   numbers large enough that the next schedule compacts the queue:
   the survivors and the new timer still fire in (time, tie) order. *)
let test_sim_cancel_in_current_bucket_then_compact () =
  let sim = Sim.create () in
  let log = ref [] in
  let base = 1_024 in
  let n = 3_000 in
  let timers = Array.make n None in
  ignore
    (Sim.schedule_at sim base (fun () ->
         Array.iteri
           (fun i tm ->
              if i mod 3 <> 0 then Option.iter (Sim.cancel sim) tm)
           timers;
         check Alcotest.int "dead timers counted" 2_000
           (Sim.cancelled_pending sim);
         ignore
           (Sim.schedule_at sim (base + 1) (fun () ->
                log := (base + 1, n) :: !log))));
  for i = 0 to n - 1 do
    let k = base + (i * 7 mod 64) in
    timers.(i) <-
      Some (Sim.schedule_at sim k (fun () -> log := (k, i) :: !log))
  done;
  Sim.run sim;
  let expected =
    List.sort compare
      ((base + 1, n)
       :: List.filter_map
         (fun i -> if i mod 3 = 0 then Some (base + (i * 7 mod 64), i)
           else None)
         (List.init n Fun.id))
  in
  check Alcotest.int "one compaction" 1 (Sim.compactions sim);
  check Alcotest.int "no dead timers left" 0 (Sim.cancelled_pending sim);
  check Alcotest.bool "(time, tie) order" true (List.rev !log = expected);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* Lone events at the first and last nanosecond of their buckets,
   scheduled up front and from callbacks, with empty buckets, empty
   groups of buckets and whole wheel spans between them. *)
let test_sim_bucket_edges () =
  let sim = Sim.create () in
  let log = ref [] in
  let rec at k =
    ignore
      (Sim.schedule_at sim k (fun () ->
           log := k :: !log;
           (* from the first nanosecond of a bucket, its last one *)
           if k land 63 = 0 && k < 10_000_000 then at (k + 63)))
  in
  List.iter at [ 0; 127; 64 * 100; 64 * 4097 + 63; 64 * 40_000 ];
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "every edge event on time"
    [ 0; 63; 127; 6_400; 6_463; 262_271; 2_560_000; 2_560_063 ]
    (List.rev !log);
  check Alcotest.int "clock at the last event" 2_560_063 (Sim.now sim)

(* Lane events: [post] fires handlers with their int argument in the
   same (time, tie) order as closure timers, interleaved with them. *)
let test_sim_post_interleaves () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.register sim (fun x -> log := x :: !log) in
  let at k x = ignore (Sim.schedule_at sim k (fun () -> log := x :: !log)) in
  let post after x = ignore (Sim.post sim ~after h x : int) in
  post 20 1;
  at 20 2;
  post 10 0;
  post 20 (-3);
  at 5 (-1);
  post 1_000_000 4;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "(time, tie) order, args intact"
    [ -1; 0; 1; 2; -3; 4 ] (List.rev !log);
  check Alcotest.int "every lane event counted" 6 (Sim.events_processed sim);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* A reserved tie is older than every timer scheduled after the
   reservation, so an event posted with it at time [k] pops before
   them in whichever tier [k] falls: the current bucket, a wheel
   bucket or the overflow heap, also for a time between a [run ~until]
   horizon and the next queued event. *)
let test_sim_reserved_ties_every_tier () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.register sim (fun x -> log := x :: !log) in
  let first = Sim.reserve sim 8 in
  let at k x = ignore (Sim.schedule_at sim k (fun () -> log := x :: !log)) in
  at 200 200;
  at 250 250;
  Sim.run ~until:100 sim;
  (* 150 lies between the horizon and the first queued time (200) *)
  at 150 151;
  Sim.post_tie sim ~at:150 ~tie:(first + 1) h 150;
  (* current bucket, behind a timer scheduled before the pause *)
  Sim.post_tie sim ~at:200 ~tie:first h 199;
  ignore
    (Sim.schedule_at sim 300 (fun () ->
         log := 300 :: !log;
         at 300 302;
         at 1_300 1_301;
         at 2_000_300 2_000_301;
         Sim.post_tie sim ~at:300 ~tie:(first + 2) h 301;
         Sim.post_tie sim ~at:1_300 ~tie:(first + 3) h 1_300;
         Sim.post_tie sim ~at:2_000_300 ~tie:(first + 4) h 2_000_300));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "reserved ties pop first"
    [ 150; 151; 199; 200; 250; 300; 301; 302; 1_300; 1_301; 2_000_300;
      2_000_301 ]
    (List.rev !log);
  check Alcotest.int "drained" 0 (Sim.pending sim)

(* Popping cancelled timers past the clock can leave nothing queued
   and the window above the clock. Timers then scheduled between the
   clock and the cancelled ones' times, and past them, must still fire
   in time order. *)
let test_sim_schedule_after_cancelled_drain () =
  let sim = Sim.create () in
  let log = ref [] in
  let at k = ignore (Sim.schedule_at sim k (fun () -> log := k :: !log)) in
  at 10;
  Sim.cancel sim (Sim.schedule_at sim 5_000 ignore);
  Sim.cancel sim (Sim.schedule_at sim 1_000_000 ignore);
  Sim.run sim;
  check Alcotest.int "clock at the last event fired" 10 (Sim.now sim);
  List.iter at [ 4_000; 20; 3_000_000; 20; 1_000_010 ];
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "fired in time order"
    [ 10; 20; 20; 4_000; 1_000_010; 3_000_000 ] (List.rev !log);
  check Alcotest.int "clock at the last event" 3_000_000 (Sim.now sim);
  check Alcotest.int "drained" 0 (Sim.pending sim)

let test_sim_post_tie_rejects () =
  let sim = Sim.create () in
  let h = Sim.register sim ignore in
  ignore (Sim.schedule_at sim 10 ignore);
  let first = Sim.reserve sim 2 in
  ignore (Sim.schedule_at sim 20 ignore);
  let raises name f =
    match f () with
    | () -> Alcotest.fail (name ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  raises "a scheduled timer's tie" (fun () ->
      Sim.post_tie sim ~at:30 ~tie:(first - 1) h 0);
  raises "the tie after the block" (fun () ->
      Sim.post_tie sim ~at:30 ~tie:(first + 2) h 0);
  raises "a tie never taken" (fun () ->
      Sim.post_tie sim ~at:30 ~tie:1_000 h 0);
  Sim.run sim;
  raises "a time in the past" (fun () ->
      Sim.post_tie sim ~at:19 ~tie:first h 0);
  Sim.post_tie sim ~at:20 ~tie:(first + 1) h 0;
  Sim.run sim;
  check Alcotest.int "reserved tie at now accepted" 3
    (Sim.events_processed sim)

(* Posting, firing and freeing a lane event allocate nothing: a
   handler re-posting itself 10k times leaves the minor heap where it
   was, give or take the words the measurement and [run] itself take. *)
let test_sim_post_allocates_nothing () =
  let sim = Sim.create () in
  let self = ref Sim.no_handler in
  let left = ref 0 in
  self :=
    Sim.register sim (fun x ->
        if !left > 0 then begin
          decr left;
          ignore (Sim.post sim ~after:(x land 127) !self (x + 1) : int)
        end);
  let cycles n =
    left := n;
    ignore (Sim.post sim ~after:1 !self 0 : int);
    Sim.run sim
  in
  cycles 1_000;
  let before = Gc.minor_words () in
  cycles 10_000;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words over 10k post/fire cycles" words)
    true (words < 100.);
  check Alcotest.int "all fired" 11_002 (Sim.events_processed sim)

(* Both kinds of ticket keep one cancel contract: cancelling before
   the event fires drops it (and counts it as cancelled until it leaves
   the queue); after it fired, after it was cancelled, once its slot
   holds another event of either kind, from its own callback, or with
   a negative ticket, cancelling does nothing. [arm sim fire] returns
   how to arm [fire x] [after] ns ahead: on the lane, as a closure, or
   alternating between the two, so stale tickets of one kind meet
   events of the other in their old slots. *)
let test_sim_cancel_contract () =
  let lane sim fire =
    let h = Sim.register sim fire in
    fun ~after x -> Sim.post sim ~after h x
  and closure sim fire ~after x = Sim.schedule sim ~after (fun () -> fire x) in
  let mixed sim fire =
    let lane = lane sim fire and n = ref 0 in
    fun ~after x ->
      incr n;
      if !n land 1 = 1 then lane ~after x else closure sim fire ~after x
  in
  let contract name arm =
    let sim = Sim.create () in
    let log = ref [] and self = ref (-1) in
    let arm =
      arm sim (fun x ->
          log := x :: !log;
          if x = 3 then Sim.cancel sim !self)
    in
    let a = arm ~after:10 1 in
    let b = arm ~after:20 2 in
    Sim.cancel sim a;
    Sim.cancel sim a;
    check Alcotest.int (name ^ ": cancelled once") 1
      (Sim.cancelled_pending sim);
    check Alcotest.int (name ^ ": one live event") 1 (Sim.pending sim);
    Sim.run sim;
    check (Alcotest.list Alcotest.int) (name ^ ": only the live event fired")
      [ 2 ] !log;
    check Alcotest.int (name ^ ": dead event left the queue") 0
      (Sim.cancelled_pending sim);
    Sim.cancel sim b;
    check Alcotest.int (name ^ ": cancel after fire is a no-op") 0
      (Sim.cancelled_pending sim);
    (* the free list hands [b]'s slot out first, then [a]'s *)
    ignore (arm ~after:5 4 : int);
    self := arm ~after:7 3;
    Sim.cancel sim b;
    Sim.cancel sim a;
    Sim.cancel sim (-1);
    Sim.run sim;
    check (Alcotest.list Alcotest.int) (name ^ ": stale tickets cancel nothing")
      [ 2; 4; 3 ] (List.rev !log);
    check Alcotest.int (name ^ ": self-cancel is a no-op") 0
      (Sim.cancelled_pending sim);
    check Alcotest.int (name ^ ": three events fired") 3
      (Sim.events_processed sim)
  in
  contract "lane" lane;
  contract "closure" closure;
  contract "mixed" mixed

(* Arming, cancelling and re-arming a timer allocate nothing, whether
   the timer is a lane event or a preallocated closure: an RTO-style
   churn, where a ticker re-arms a timer ahead of itself 10k times and
   the cancelled copies leave the queue as they come due, stays within
   the words the measurement and [run] take. [arm sim fire] returns the
   function that arms [fire] 1000 ns ahead. *)
let test_sim_post_cancel_allocates_nothing () =
  let churn name arm =
    let sim = Sim.create () in
    let ticker = ref Sim.no_handler in
    let left = ref 0 and ticket = ref (-1) and fired = ref 0 in
    let arm = arm sim (fun () -> incr fired) in
    ticker :=
      Sim.register sim (fun x ->
          Sim.cancel sim !ticket;
          ticket := arm x;
          if !left > 0 then begin
            decr left;
            ignore (Sim.post sim ~after:(1 + (x land 63)) !ticker (x + 1) : int)
          end);
    let cycles n =
      left := n;
      ignore (Sim.post sim ~after:1 !ticker 0 : int);
      Sim.run sim
    in
    cycles 1_000;
    let before = Gc.minor_words () in
    cycles 10_000;
    let words = Gc.minor_words () -. before in
    check Alcotest.bool
      (Printf.sprintf "%s: %.0f minor words over 10k arm/cancel/re-arm cycles"
         name words)
      true (words <= 100.);
    check Alcotest.int (name ^ ": only the last timer of each burst fired") 2
      !fired;
    check Alcotest.int (name ^ ": drained") 0 (Sim.pending sim)
  in
  churn "lane" (fun sim fire ->
      let h = Sim.register sim (fun _ -> fire ()) in
      fun x -> Sim.post sim ~after:1_000 h x);
  churn "closure" (fun sim fire _ -> Sim.schedule sim ~after:1_000 fire)

(* A closure event lets go of its callback as it fires or is cancelled,
   even while the cancelled event is still queued: what the callback
   captured is collectable, though the simulator lives on. A still
   pending closure stays reachable. *)
let test_sim_closures_not_retained () =
  let sim = Sim.create () in
  let collected = ref [] in
  let arm name at =
    let captured = Bytes.make 16 'x' in
    Gc.finalise_last (fun () -> collected := name :: !collected) captured;
    Sim.schedule_at sim at (fun () -> Bytes.set captured 0 'y')
  in
  ignore (arm "fired" 10 : int);
  Sim.cancel sim (arm "cancelled" 20);
  ignore (arm "pending" 30 : int);
  Sim.run ~until:15 sim;
  check Alcotest.int "cancelled event still queued" 1
    (Sim.cancelled_pending sim);
  Gc.full_major ();
  check (Alcotest.list Alcotest.string) "fired and cancelled collected"
    [ "cancelled"; "fired" ] (List.sort compare !collected);
  Sim.run sim;
  Gc.full_major ();
  check (Alcotest.list Alcotest.string) "pending collected once fired"
    [ "cancelled"; "fired"; "pending" ] (List.sort compare !collected)

(* Model-based scheduler test: drive the same randomized scenario —
   near/far/tied timers, nested scheduling from callbacks, random
   cancellations and a mass-cancel burst large enough to trigger
   compaction — through [Sim] and through a naive sorted-list reference
   scheduler, and require the exact same fire log. This pins down the
   total (time, insertion-order) event order across the calendar
   queue's current bucket, wheel buckets and overflow tier. *)
module Ref_sched = struct
  type ev = {
    key : int;
    tie : int;
    mutable alive : bool;
    fire : unit -> unit;
  }

  type t = { mutable evs : ev list; mutable now : int; mutable tie : int }

  let create () = { evs = []; now = 0; tie = 0 }

  let schedule_tie t key tie fire =
    if key < t.now then invalid_arg "Ref_sched: past";
    let ev = { key; tie; alive = true; fire } in
    t.evs <- ev :: t.evs;
    fun () -> ev.alive <- false

  let schedule t key fire =
    let c = schedule_tie t key t.tie fire in
    t.tie <- t.tie + 1;
    c

  let reserve t n =
    let first = t.tie in
    t.tie <- t.tie + n;
    fun i key fire ->
      let (_ : unit -> unit) = schedule_tie t key (first + i) fire in
      ()

  let run ?(until = max_int) t =
    let rec loop () =
      t.evs <- List.filter (fun ev -> ev.alive) t.evs;
      let best =
        List.fold_left
          (fun acc ev ->
             if not ev.alive then acc
             else
               match acc with
               | None -> Some ev
               | Some b ->
                 if (ev.key, ev.tie) < (b.key, b.tie) then Some ev
                 else acc)
          None t.evs
      in
      match best with
      | None -> ()
      | Some ev when ev.key > until -> t.now <- until
      | Some ev ->
        ev.alive <- false;
        t.now <- ev.key;
        ev.fire ();
        loop ()
    in
    loop ()
end

(* What a scenario can do with a scheduler: [schedule] and [post] (a
   lane event, cancelled through its ticket) return a cancel function;
   [reserve n] takes n ties and returns a poster [(i, key, fire)] for
   the i-th of them. *)
type ops = {
  schedule : int -> (unit -> unit) -> unit -> unit;
  post : int -> (unit -> unit) -> unit -> unit;
  reserve : int -> int -> int -> (unit -> unit) -> unit;
  now : unit -> int;
}

(* Generate the scenario through an abstract [ops]; as long as both
   schedulers fire events in the same order, every random draw happens
   at the same point and the logs coincide. Returns the fire log and a
   function that adds a few events right after a [run ~until] pause. *)
let drive { schedule; post; reserve; now } seed =
  let rng = Rng.create seed in
  let log = ref [] in
  let cancels = ref [||] and n_cancels = ref 0 in
  let push c =
    if !n_cancels = Array.length !cancels then
      cancels := Array.append !cancels (Array.make (max 16 !n_cancels) c);
    !cancels.(!n_cancels) <- c;
    incr n_cancels
  in
  let n_id = ref 0 in
  (* Ties reserved before anything is scheduled, so each is older than
     every queued event when it is posted; the flow-start cursor uses
     them the same way. A second block is reserved mid-run. *)
  let early = reserve 400 and n_early = ref 0 in
  let late = ref (fun _ _ _ -> ()) and n_late = ref 400 in
  let near_or_far () =
    match Rng.int rng 4 with
    | 0 -> 0                                  (* tie with now *)
    | 1 -> Rng.int rng 50                     (* same bucket *)
    | 2 -> Rng.int rng 5_000                  (* within wheel *)
    | _ -> 300_000 + Rng.int rng 1_000_000    (* overflow *)
  in
  let rec spawn depth () =
    let id = !n_id in
    incr n_id;
    fun () ->
      log := (id, now ()) :: !log;
      if depth < 3 then begin
        for _ = 1 to Rng.int rng 3 do
          let dt =
            match Rng.int rng 4 with
            | 0 -> 0                                  (* tie with now *)
            | 1 -> Rng.int rng 50                     (* same bucket *)
            | 2 -> Rng.int rng 5_000                  (* within wheel *)
            | _ -> 300_000 + Rng.int rng 1_000_000    (* overflow *)
          in
          push (schedule (now () + dt) (spawn (depth + 1) ()))
        done;
        (match Rng.int rng 4 with
         | 0 -> push (post (now () + near_or_far ()) (spawn (depth + 1) ()))
         | 1 when !n_early < 400 ->
           early !n_early (now () + near_or_far ()) (spawn (depth + 1) ());
           incr n_early
         | 2 when !n_late < 400 ->
           !late !n_late (now () + near_or_far ()) (spawn (depth + 1) ());
           incr n_late
         | _ -> ());
        if Rng.int rng 3 = 0 && !n_cancels > 0 then
          !cancels.(Rng.int rng !n_cancels) ()
      end
  in
  for _ = 1 to 200 do
    push (schedule (Rng.int rng 2_000_000) (spawn 0 ()))
  done;
  (* Burst of far-future timers cancelled on the spot: enough dead
     slots to push Sim over its compaction threshold. *)
  let (_ : unit -> unit) =
    schedule 1_000_000 (fun () ->
        let cs =
          List.init 1500 (fun i ->
              schedule (5_000_000 + i) (fun () ->
                  log := (-1, now ()) :: !log))
        in
        List.iter (fun c -> c ()) cs)
  in
  (* Retransmit-timer churn: a dense ticker re-arms one far timer per
     tick (cancelling the previous one) and fires a few near timers
     within a bucket or two. Fired and cancelled timers give their
     storage back while new ones take it, and the cancellations pile
     up past the compaction threshold in the middle of it. *)
  let rto = ref (fun () -> ()) and lane_rto = ref (fun () -> ()) in
  let rec tick n () =
    log := (-2, now ()) :: !log;
    !rto ();
    rto := schedule (now () + 300_000 + Rng.int rng 1_000) (fun () ->
        log := (-3, now ()) :: !log);
    (* the same churn on the lane, as the transports' RTOs run it *)
    !lane_rto ();
    lane_rto := post (now () + 300_000 + Rng.int rng 1_000) (fun () ->
        log := (-4, now ()) :: !log);
    for _ = 0 to Rng.int rng 2 do
      push (schedule (now () + Rng.int rng 100) (spawn 3 ()))
    done;
    (* short-lived lane events free their slots for the next posts, and
       cancelling a stale ticket must leave the slot's new event be *)
    for _ = 0 to Rng.int rng 2 do
      push (post (now () + Rng.int rng 100) (spawn 3 ()))
    done;
    if Rng.int rng 2 = 0 && !n_cancels > 0 then
      !cancels.(!n_cancels - 1 - Rng.int rng (min 32 !n_cancels)) ();
    (* Now and then a burst of many timers at one nanosecond, some of
       them cancelled straight away. *)
    if Rng.int rng 50 = 0 then begin
      let at = now () + Rng.int rng 70 in
      for _ = 1 to 20 + Rng.int rng 60 do
        let c = schedule at (spawn 3 ()) in
        if Rng.int rng 4 = 0 then c () else push c
      done
    end;
    if n > 0 then begin
      let (_ : unit -> unit) =
        schedule (now () + 1 + Rng.int rng 8) (tick (n - 1))
      in
      ()
    end
  in
  let (_ : unit -> unit) = schedule 1_500_000 (tick 3_000) in
  let (_ : unit -> unit) =
    schedule 1_200_000 (fun () ->
        late := reserve 400;
        n_late := 0)
  in
  (* Right after a pause, the clock sits at the horizon, short of the
     next queued event: events land in between. *)
  let after_pause () =
    for _ = 1 to 10 do
      let at = now () + Rng.int rng 200 in
      match Rng.int rng 3 with
      | 0 -> push (schedule at (spawn 2 ()))
      | 1 -> push (post at (spawn 2 ()))
      | _ ->
        if !n_early < 400 then begin
          early !n_early at (spawn 2 ());
          incr n_early
        end
    done
  in
  (log, after_pause)

let prop_sim_matches_reference =
  QCheck.Test.make ~name:"sim pops match sorted-list reference"
    ~count:10 QCheck.small_int
    (fun seed ->
       let pauses = [ 37_000 + seed; 900_000 + (7 * seed); 1_600_003 ] in
       let sim = Sim.create () in
       let fires = Hashtbl.create 64 and n_fires = ref 0 in
       let lane =
         Sim.register sim (fun i ->
             let f = Hashtbl.find fires i in
             Hashtbl.remove fires i;
             f ())
       in
       let stash f =
         let i = !n_fires in
         incr n_fires;
         Hashtbl.replace fires i f;
         i
       in
       let sim_log, sim_after_pause =
         drive
           { schedule =
               (fun k f ->
                  let tm = Sim.schedule_at sim k f in
                  fun () -> Sim.cancel sim tm);
             post =
               (fun k f ->
                  let ticket =
                    Sim.post sim ~after:(k - Sim.now sim) lane (stash f)
                  in
                  fun () -> Sim.cancel sim ticket);
             reserve =
               (fun n ->
                  let first = Sim.reserve sim n in
                  fun i k f ->
                    Sim.post_tie sim ~at:k ~tie:(first + i) lane (stash f));
             now = (fun () -> Sim.now sim) }
           seed
       in
       List.iter
         (fun until -> Sim.run ~until sim; sim_after_pause ())
         pauses;
       Sim.run sim;
       let r = Ref_sched.create () in
       let ref_log, ref_after_pause =
         drive
           { schedule = Ref_sched.schedule r;
             post = Ref_sched.schedule r;
             reserve = Ref_sched.reserve r;
             now = (fun () -> r.Ref_sched.now) }
           seed
       in
       List.iter
         (fun until -> Ref_sched.run ~until r; ref_after_pause ())
         pauses;
       Ref_sched.run r;
       List.length !sim_log > 200
       && !sim_log = !ref_log
       && Sim.compactions sim >= 3
       && Sim.pending sim = 0)

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim 10 (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Sim.schedule_at: 5 is in the past (now=10)")
    (fun () -> ignore (Sim.schedule_at sim 5 ignore))

let test_units_tx_time () =
  (* 1500 bytes at 10 Gbps = 1200 ns *)
  check Alcotest.int "mtu at 10G" 1200
    (Units.tx_time ~rate:(Units.gbps 10) ~bytes:1500);
  (* rounding up *)
  check Alcotest.int "1 byte at 10G" 1
    (Units.tx_time ~rate:(Units.gbps 10) ~bytes:1)

let test_units_bdp () =
  (* 40 Gbps * 8 us = 40 KB *)
  check Alcotest.int "bdp 40G x 8us" 40_000
    (Units.bdp ~rate:(Units.gbps 40) ~rtt:(Units.us 8))

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 100 (fun _ -> Rng.float a) in
  let ys = List.init 100 (fun _ -> Rng.float b) in
  check Alcotest.bool "same seed, same stream" true (xs = ys)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let sub = Rng.split a in
  let before = Rng.float a in
  let a2 = Rng.create 7 in
  let _sub2 = Rng.split a2 in
  let before2 = Rng.float a2 in
  ignore (Rng.float sub);
  check (Alcotest.float 0.) "parent unaffected by split usage"
    before before2

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng floats live in [0,1)" ~count:500
    QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let ok = ref true in
       for _ = 1 to 50 do
         let x = Rng.float rng in
         if x < 0. || x >= 1. then ok := false
       done;
       !ok)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng ints live in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
       let rng = Rng.create seed in
       let ok = ref true in
       for _ = 1 to 50 do
         let x = Rng.int rng bound in
         if x < 0 || x >= bound then ok := false
       done;
       !ok)

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential variates are non-negative"
    ~count:200
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, mean) ->
       let rng = Rng.create seed in
       let ok = ref true in
       for _ = 1 to 20 do
         if Rng.exponential rng ~mean < 0. then ok := false
       done;
       !ok)

let test_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 200_000 in
  let sum = ref 0. in
  for _ = 1 to n do sum := !sum +. Rng.exponential rng ~mean:100. done;
  let m = !sum /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "sample mean %.2f within 2%% of 100" m)
    true (abs_float (m -. 100.) < 2.)

(* The streams are part of every pinned output: these are the first
   draws of a seed and of a split stream as the boxed-[int64] generator
   produced them. [Rng.int _ max_int] returns the draw's 62 bits. *)
let test_rng_pinned_draws () =
  let r = Rng.create 1 in
  let ints rng = List.init 3 (fun _ -> Rng.int rng max_int) in
  check Alcotest.(list int) "create 1"
    [ 2612804094800205616; 3439311302766607129; 4477959822570722647 ]
    (ints r);
  check Alcotest.(float 0.) "then a float" 0x1.c7061a43b90b2p-2
    (Rng.float r);
  let s = Rng.split r in
  check Alcotest.(list int) "split"
    [ 1152954867435498666; 2140180890788834806; 4274177049013414301 ]
    (ints s);
  check Alcotest.int "parent after the split" 3518229400716132512
    (Rng.int r max_int);
  check Alcotest.(float 0.) "split exponential" 0x1.99c72df8d88bfp+9
    (Rng.exponential s ~mean:1000.)

(* A draw allocates nothing: the state is updated in place, unboxed. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 3 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do acc := !acc + Rng.int rng 1_000 done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  check Alcotest.(float 0.) "minor words over 10k Rng.int draws" 0. words

let suite =
  [ Alcotest.test_case "heap: pop order" `Quick test_heap_order;
    Alcotest.test_case "heap: fifo tie-break" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap: top_key / pop_exn" `Quick
      test_heap_top_pop_exn;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "sim: event ordering" `Quick test_sim_ordering;
    Alcotest.test_case "sim: cancel" `Quick test_sim_cancel;
    Alcotest.test_case "sim: nested scheduling" `Quick
      test_sim_nested_schedule;
    Alcotest.test_case "sim: run until horizon" `Quick test_sim_until;
    Alcotest.test_case "sim: horizon event survives and resumes" `Quick
      test_sim_until_resume;
    Alcotest.test_case "sim: cancelled-timer accounting" `Quick
      test_sim_cancel_accounting;
    Alcotest.test_case "sim: run until before now raises" `Quick
      test_sim_until_past_raises;
    Alcotest.test_case "sim: cancel after storage is recycled" `Quick
      test_sim_cancel_recycled;
    Alcotest.test_case "sim: callback cancels its own timer" `Quick
      test_sim_cancel_self;
    Alcotest.test_case "sim: dense bucket pops in order" `Quick
      test_sim_dense_bucket;
    Alcotest.test_case "sim: overflow migrates across a pause" `Quick
      test_sim_overflow_across_pause;
    Alcotest.test_case "sim: one ns mixes migrated and direct timers"
      `Quick test_sim_same_ns_migrated_and_direct;
    Alcotest.test_case "sim: until stops before the current bucket"
      `Quick test_sim_until_before_current_bucket;
    Alcotest.test_case "sim: cancel in the current bucket, then compact"
      `Quick test_sim_cancel_in_current_bucket_then_compact;
    Alcotest.test_case "sim: lone events at bucket edges" `Quick
      test_sim_bucket_edges;
    Alcotest.test_case "sim: lane events interleave with timers" `Quick
      test_sim_post_interleaves;
    Alcotest.test_case "sim: reserved ties pop first in every tier" `Quick
      test_sim_reserved_ties_every_tier;
    Alcotest.test_case "sim: schedule after a drain of cancelled timers"
      `Quick test_sim_schedule_after_cancelled_drain;
    Alcotest.test_case "sim: post_tie refuses bad ties and past times"
      `Quick test_sim_post_tie_rejects;
    Alcotest.test_case "sim: lane events allocate nothing" `Quick
      test_sim_post_allocates_nothing;
    Alcotest.test_case "sim: lane tickets cancel like timers" `Quick
      test_sim_cancel_contract;
    Alcotest.test_case "sim: lane timer churn allocates nothing" `Quick
      test_sim_post_cancel_allocates_nothing;
    Alcotest.test_case "sim: fired and cancelled closures are not retained"
      `Quick test_sim_closures_not_retained;
    QCheck_alcotest.to_alcotest prop_sim_matches_reference;
    Alcotest.test_case "sim: past scheduling raises" `Quick
      test_sim_past_raises;
    Alcotest.test_case "units: tx time" `Quick test_units_tx_time;
    Alcotest.test_case "units: bdp" `Quick test_units_bdp;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick
      test_rng_split_independent;
    QCheck_alcotest.to_alcotest prop_rng_float_range;
    QCheck_alcotest.to_alcotest prop_rng_int_range;
    QCheck_alcotest.to_alcotest prop_exponential_positive;
    Alcotest.test_case "rng: exponential mean" `Quick
      test_exponential_mean;
    Alcotest.test_case "rng: pinned first draws" `Quick
      test_rng_pinned_draws;
    Alcotest.test_case "rng: draws allocate nothing" `Quick
      test_rng_draws_allocate_nothing ]
