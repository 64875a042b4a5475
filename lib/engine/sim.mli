(** Discrete-event simulator: clock, event queue, cancellable events.

    Every event is a handler and an int argument: a closure scheduled
    with {!schedule} and an [int -> unit] handler posted with {!post}
    are queued, ordered, ticketed and cancelled the same way.

    Determinism: equal-time events fire in the order they were
    scheduled, and all randomness comes from explicitly seeded
    {!Rng} streams, so a run is a pure function of its seed. *)

type t

val create : unit -> t

val now : t -> Units.time
val events_processed : t -> int

val pending : t -> int
(** Scheduled events that are still live (not cancelled). *)

val cancelled_pending : t -> int
(** Cancelled events still occupying queue slots; drops to zero when a
    compaction pass reclaims them. *)

val compactions : t -> int
(** Number of dead-event compaction passes run so far. *)

val schedule_at : t -> Units.time -> (unit -> unit) -> int
(** [schedule_at t at f] runs [f ()] at absolute time [at], taking the
    next tie, and returns a non-negative ticket for {!cancel}. It
    stores one pointer, [f], and allocates nothing else: a preallocated
    [f] arms a per-flow timer (an RTO, a pacer) for free. The event
    drops [f] as it fires or is cancelled.
    @raise Invalid_argument if [at] is in the past. *)

val schedule : t -> after:Units.time -> (unit -> unit) -> int

val schedule1 : t -> after:Units.time -> ('a -> unit) -> 'a -> int
(** [schedule1 t ~after f x] is [schedule t ~after (fun () -> f x)]. *)

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
(** [post t ~after h x] schedules [h x] like {!schedule}, taking the
    next tie, and returns a ticket for {!cancel}. Posting, firing and
    cancelling allocate nothing and store no pointer: the datapath's
    per-hop events go through it. [x] must fit in [Sys.int_size - 8]
    bits. *)

val cancel : t -> int -> unit
(** [cancel t ticket] cancels the event {!schedule} or {!post} returned
    [ticket] for. It is a no-op if the event already fired or was
    already cancelled, also once its storage holds another event, and
    also from inside the event's own callback. A negative ticket is a
    no-op too, so [-1] can stand for "none". *)

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

val stop : t -> unit
(** Stop the run loop after the current event. *)

val run : ?until:Units.time -> t -> unit
(** Process events until the queue empties, [stop] is called or the
    clock would pass [until]. An event past [until] is left queued (and
    the clock left at [until]), so a later [run] call resumes exactly
    where this one stopped.
    @raise Invalid_argument if [until] is before {!now}: the clock
    never moves backwards. *)
