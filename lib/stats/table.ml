(* Small fixed-width table printer for benchmark output.

   Produces the row/series layout the paper's figures report, e.g.

     scheme        overall  small-avg  small-p99  large-avg
     ppt             0.412      0.051      0.180      1.871   *)

(* Every cell is a space and then its text right-aligned in
   [cell_width], so a cell wider than that still stays apart from its
   neighbour. *)
let cell_width = 10

let pp_cell ppf s =
  Format.fprintf ppf " %*s" cell_width s

let fmt_float v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10. then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.4f" v

let header ?(label_width = 22) ppf cols =
  Format.fprintf ppf "%-*s" label_width "";
  List.iter (pp_cell ppf) cols;
  Format.fprintf ppf "@\n"

let row ?(label_width = 22) ppf label vals =
  Format.fprintf ppf "%-*s" label_width label;
  List.iter (fun v -> pp_cell ppf (fmt_float v)) vals;
  Format.fprintf ppf "@\n"

let text_row ?(label_width = 22) ppf label cells =
  Format.fprintf ppf "%-*s" label_width label;
  List.iter (pp_cell ppf) cells;
  Format.fprintf ppf "@\n"
