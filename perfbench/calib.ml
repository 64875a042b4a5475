(* Host speed, measured in the run itself.

   The benchmark runs on shared hosts whose speed drifts by tens of
   percent within minutes, far more than the changes it is meant to
   show. So a run interleaves short slices of a fixed piece of work
   with the simulation it measures, and reads the host's speed off
   them over the same span. The work uses no repository code: a random
   walk over 16 MB (memory latency), a binary heap of ints (branchy
   compute) and a small record allocated per step (the minor heap). Its
   state lives outside the OCaml heap and what it allocates dies young,
   so its speed does not depend on what the process ran before. *)

(* Host ns per kernel step on the host the reference figures were
   taken on (2-core VM, OCaml 5.1.1). Normalized times are scaled to
   it. *)
let reference_ns = 350.

let walk_bits = 21
let heap_size = 4096
let ring = 256

type cell = { pos : int; step : int }

let lcg s = ((s * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF

(* One cycle through every slot (Sattolo's shuffle), so the walk never
   settles into a short, cached loop. *)
let walk =
  lazy
    (let n = 1 lsl walk_bits in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do a.{i} <- i done;
     let s = ref 1 in
     for i = n - 1 downto 1 do
       s := lcg !s;
       let j = (!s lsr 17) mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let heap = Array.init heap_size (fun i -> i)
let kept = Array.make ring { pos = 0; step = 0 }
let pos = ref 0
let sum = ref 0

let kernel steps =
  let a = Lazy.force walk in
  let p = ref !pos in
  for step = 1 to steps do
    p := a.{!p};
    (* raise the minimum and sift it down *)
    let v = heap.(0) + 1 + (!p land 1023) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= heap_size then continue := false
      else begin
        let c =
          if l + 1 < heap_size && heap.(l + 1) < heap.(l) then l + 1 else l
        in
        if heap.(c) < v then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- v;
    let old = kept.(step land (ring - 1)) in
    sum := !sum + old.pos - old.step;
    kept.(step land (ring - 1)) <- { pos = !p; step }
  done;
  pos := !p

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Slices run so far, and their CPU and wall seconds. *)
type t = { mutable steps : int; mutable cpu_s : float; mutable wall_s : float }

let create () =
  ignore (Lazy.force walk);
  { steps = 0; cpu_s = 0.; wall_s = 0. }

let slice_steps = 10_000

let slice t =
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  kernel slice_steps;
  t.cpu_s <- t.cpu_s +. (cpu () -. c0);
  t.wall_s <- t.wall_s +. (Unix.gettimeofday () -. w0);
  t.steps <- t.steps + slice_steps

(* Host ns per step over the slices, in CPU and in wall time. *)
let ns_per_step t = 1e9 *. t.cpu_s /. float_of_int t.steps
let wall_ns_per_step t = 1e9 *. t.wall_s /. float_of_int t.steps
