(** Fixed-width table printing for benchmark output. *)

val header :
  ?label_width:int -> Format.formatter -> string list -> unit

val row :
  ?label_width:int -> Format.formatter -> string -> float list -> unit
(** NaNs print as "-"; precision adapts to magnitude. *)

val fmt_float : float -> string
(** The text [row] prints for a float cell. *)

val text_row :
  ?label_width:int -> Format.formatter -> string -> string list -> unit
