(** Physical units: integer-nanosecond time and bits-per-second rates. *)

type time = int
(** Simulated time in nanoseconds. *)

val us : int -> time
val ms : int -> time
val sec : int -> time

val to_us : time -> float
val to_ms : time -> float
val to_sec : time -> float

val pp_time : Format.formatter -> time -> unit

type rate = int
(** Rate in bits per second. *)

val gbps : int -> rate

val tx_time : rate:rate -> bytes:int -> time
(** Serialization delay of [bytes] at [rate], rounded up. *)

val bytes_in : rate:rate -> time:time -> int
(** Bytes delivered by [rate] over an interval, rounded down. *)

val bdp : rate:rate -> rtt:time -> int
(** Bandwidth-delay product in bytes. *)

val kb : int -> int
val mb : int -> int
