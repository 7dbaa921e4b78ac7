type t = { mutable comm : int; mutable mig : int }

let zero () = { comm = 0; mig = 0 }
let total t = t.comm + t.mig

let pp fmt t =
  Format.fprintf fmt "comm=%d mig=%d total=%d" t.comm t.mig (total t)

let to_string t = Format.asprintf "%a" pp t
