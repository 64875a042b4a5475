(* Buffer-aware flow identification (§4.1): a flow is declared large
   when its first system call injects more than [threshold] bytes into
   the send buffer. Flows that escape the check (streaming writers)
   fall back to PIAS-style ageing in {!Tagging}. *)

type t = {
  threshold : int;
  model : Sendbuf.model;
}

let make ?(threshold = 100_000) ?(model = Sendbuf.default) () =
  if threshold <= 0 then invalid_arg "Flow_ident.make: bad threshold";
  { threshold; model }

let identify t rng ~flow_size =
  Sendbuf.first_syscall_size t.model rng ~flow_size > t.threshold
