(** Minimal JSON tree with printer and parser.

    Just enough JSON for the linter's machine-readable reports — no opam
    dependency.  The parser accepts everything the
    printer emits (standard escapes; [\uXXXX] for ASCII only) and rejects
    trailing garbage. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Integral [Num] values print without
    a decimal point, so reports are stable under round-trips. *)

val parse : string -> (t, string) result
(** [Error msg] carries the byte offset of the first syntax error. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing key or non-object. *)

val to_list : t -> t list option
val to_str : t -> string option
val to_int : t -> int option
