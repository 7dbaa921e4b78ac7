(** Cost accounting: communication + migration, as defined in Section 2.

    A request costs 1 of communication if its endpoints are on different
    servers when it arrives; each process migration costs 1.  Totals are
    kept as integers (the model is integral); ratios are computed in float
    by the harness. *)

type t = { mutable comm : int; mutable mig : int }

val zero : unit -> t
val total : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
