(** Minimal JSON tree and printer.

    Just enough JSON for the linter's SARIF report and call-graph dump,
    and for the bench's BENCH file — no opam dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Integral [Num] values print without
    a decimal point. *)
