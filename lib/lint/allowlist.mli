(** The checked-in suppression file — every entry justified.

    Format (line-oriented):
    {v
    # Comment lines immediately above an entry are its justification.
    # An entry with no justification is a PARSE ERROR, enforcing the
    # "every allowlist entry carries a written justification" bar.
    rule-id path[:line]
    v}
    Blank lines reset the pending justification (file headers do not leak
    into the first entry).  Any field after the path is a parse error
    naming it.  A file-level entry (no [:line]) suppresses every finding
    of that rule in that file. *)

type entry = {
  rule : string;
  path : string;  (** normalized; matched as a path suffix of the finding *)
  line : int option;
  justification : string;
  source_line : int;  (** line in the allowlist file, for diagnostics *)
}

type t = entry list

val entry_id : entry -> string
(** ["rule path[:line]"] — how reporters name an entry. *)

val parse : string -> (t, string) result
(** First malformed or unjustified entry wins the error. *)

val load : path:string -> (t, string) result

type applied = {
  live : Finding.t list;  (** not suppressed — these fail the run *)
  suppressed : (Finding.t * entry) list;
  stale : entry list;  (** matched nothing — candidates for deletion *)
}

val apply : t -> Finding.t list -> applied
(** An entry matches a finding on rule equality, a normalized-path
    suffix match and the optional line.  First matching entry wins. *)
