(** ASCII table rendering for harness reports.

    The experiment harness prints one table per experiment (the repository's
    stand-in for the paper's missing evaluation tables).  Columns are sized
    to their widest cell; numeric cells are right-aligned, text cells
    left-aligned. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** Create a table; alignment is inferred per column from the first data row
    (cells parsing as floats are right-aligned). *)

val add_row : t -> string list -> unit
(** Rows must have exactly as many cells as there are headers. *)

val add_rule : t -> unit
(** Horizontal separator between row groups. *)

val render : t -> string
(** Render with unicode-free ASCII borders, ending in a newline. *)

val print : t -> unit

val cell_f : float -> string
(** Format a float compactly: integers render without decimals, otherwise 3
    significant decimals. *)

val cell_i : int -> string

val cell_ratio : float -> string
(** Format a competitive ratio with two decimals, rendering the
    non-finite cases explicitly as ["inf"], ["-inf"] and ["nan"] — e.g. a
    comparator of cost zero against a positive online cost must not
    depend on [Printf]'s locale-dependent float formatting. *)
