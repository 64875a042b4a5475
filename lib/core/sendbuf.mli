(** TCP send-buffer and system-call model, and buffer-aware large-flow
    identification (§4.1 of the paper).

    Models how applications copy message data into the kernel send
    buffer, calibrated to reproduce the paper's measured buffer-aware
    identification accuracy (86.7% of single-write applications, 512B
    chunks for the rest). *)

type model = { capacity : int  (** send-buffer capacity in bytes *) }

val default : model
(** 2GB capacity, the paper's §6.2 setting. *)

val make : ?capacity:int -> unit -> model
(** Raises [Invalid_argument] unless [capacity] is positive. *)

val identify : model -> Ppt_engine.Rng.t -> flow_size:int -> bool
(** Whether the application's first system call, drawn from [rng],
    copies more than 100KB (Table 3's threshold) into the buffer: the
    flow is then identified as large. *)
