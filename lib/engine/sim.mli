(** Discrete-event simulator: clock, event heap, cancellable timers.

    Determinism: equal-time events fire in the order they were
    scheduled, and all randomness comes from explicitly seeded
    {!Rng} streams, so a run is a pure function of its seed. *)

type t
type timer

val create : unit -> t

val now : t -> Units.time
val events_processed : t -> int

val pending : t -> int
(** Scheduled timers that are still live (not cancelled). *)

val cancelled_pending : t -> int
(** Cancelled timers still occupying queue slots; drops to zero when a
    compaction pass reclaims them. *)

val compactions : t -> int
(** Number of dead-timer compaction passes run so far. *)

val schedule_at : t -> Units.time -> (unit -> unit) -> timer
(** Raises [Invalid_argument] if the time is in the past. *)

val schedule : t -> after:Units.time -> (unit -> unit) -> timer

val schedule1 : t -> after:Units.time -> ('a -> unit) -> 'a -> timer
(** [schedule1 t ~after f x] behaves like
    [schedule t ~after (fun () -> f x)] but stores [x] inside the
    timer, avoiding the closure allocation. Intended for per-packet
    hot paths where [f] is preallocated. *)

type handler
(** An [int -> unit] handler registered with one simulator. *)

val no_handler : handler
(** A placeholder for a handler field that is filled in once the
    handler is registered (a handler that posts itself needs its own
    id). Posting it raises [Invalid_argument] when the event fires. *)

val register : t -> (int -> unit) -> handler
(** Store a handler for {!post}. A simulator holds up to 255.
    @raise Invalid_argument past that. *)

val post : t -> after:Units.time -> handler -> int -> int
(** [post t ~after h x] schedules [h x] like {!schedule1}, taking the
    next tie, and returns a non-negative ticket for {!cancel_post}.
    Posting, firing and cancelling allocate nothing and store no
    pointer: the datapath's per-hop events and the transports'
    per-flow timers go through it. [x] must fit in [Sys.int_size - 8]
    bits. *)

val cancel_post : t -> int -> unit
(** [cancel_post t ticket] cancels the event {!post} returned [ticket]
    for, with {!cancel}'s contract: a no-op if the event already
    fired or was already cancelled, also once its storage holds
    another event, and also from inside the event's own handler. A
    negative ticket is a no-op too, so [-1] can stand for "none". *)

val reserve : t -> int -> int
(** [reserve t n] takes the next [n] ties, as [n] schedules would, and
    returns the first; the others follow it consecutively. *)

val post_tie : t -> at:Units.time -> tie:int -> handler -> int -> unit
(** [post_tie t ~at ~tie h x] schedules [h x] at absolute time [at]
    with a tie taken earlier by {!reserve}: it pops exactly where a
    timer scheduled at [at] when the tie was reserved would have. Use
    each reserved tie once.
    @raise Invalid_argument if [at] is in the past or [tie] was never
    reserved. *)

val cancel : timer -> unit
(** Cancelling a timer that already fired or was already cancelled is
    a no-op, also once its storage has been reused by a later timer,
    and also from inside the timer's own callback. *)

val stop : t -> unit
(** Stop the run loop after the current event. *)

val run : ?until:Units.time -> ?max_events:int -> t -> unit
(** Process events until the queue empties, [stop] is called, the clock
    would pass [until], or [max_events] have fired. An event past
    [until] is left queued (and the clock left at [until]), so a later
    [run] call resumes exactly where this one stopped.
    @raise Invalid_argument if [until] is before {!now}: the clock
    never moves backwards. *)
