(* The process-global trace sink.

   The [enabled] flag is the entire disabled-path cost: instrumented
   hot paths do [if !Trace.enabled then ...], so with tracing off they
   pay one load + branch and construct nothing. [install]/[clear] keep
   the flag and the sink in step; [with_sink] is the exception-safe
   way to scope a capture. *)

type sink = int -> Event.t -> unit

let null : sink = fun _ _ -> ()
let enabled = ref false
let current = ref null

let install s =
  current := s;
  enabled := true

let clear () =
  enabled := false;
  current := null

let emit ts ev = !current ts ev

let with_sink s f =
  install s;
  Fun.protect ~finally:clear f

let jsonl_sink oc : sink =
  fun ts ev ->
    output_string oc (Event.to_json_line ~ts ev);
    output_char oc '\n'

(* Varint-encoded binary trace: events accumulate in a growable buffer
   that is dumped to [oc] whenever it passes [chunk] bytes, so the
   per-event cost is a handful of buffer writes — no string formatting,
   no per-event I/O. The caller must invoke the returned [flush] before
   closing the channel. *)
let chunk = 1 lsl 16

let binary_sink oc =
  output_string oc Event.bin_magic;
  let b = Buffer.create (chunk + 256) in
  let sink ts ev =
    Event.add_binary b ~ts ev;
    if Buffer.length b >= chunk then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  let flush () =
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  (sink, flush)

module Ring = struct
  type t = {
    buf : (int * Event.t) array;
    mutable head : int;      (* next write position *)
    mutable len : int;
    mutable total : int;
  }

  let placeholder = (0, Event.Flow_start { flow = -1; size = 0 })

  let create ?(capacity = 65536) () =
    if capacity <= 0 then invalid_arg "Trace.Ring.create";
    { buf = Array.make capacity placeholder; head = 0; len = 0;
      total = 0 }

  let sink t : sink =
    fun ts ev ->
      let cap = Array.length t.buf in
      t.buf.(t.head) <- (ts, ev);
      t.head <- (t.head + 1) mod cap;
      if t.len < cap then t.len <- t.len + 1;
      t.total <- t.total + 1

  let length t = t.len
  let total t = t.total
  let dropped t = t.total - t.len

  let iter t f =
    let cap = Array.length t.buf in
    let start = (t.head - t.len + cap) mod cap in
    for i = 0 to t.len - 1 do
      let ts, ev = t.buf.((start + i) mod cap) in
      f ts ev
    done

  let to_list t =
    let acc = ref [] in
    iter t (fun ts ev -> acc := (ts, ev) :: !acc);
    List.rev !acc

  let clear t =
    t.head <- 0;
    t.len <- 0;
    t.total <- 0
end
