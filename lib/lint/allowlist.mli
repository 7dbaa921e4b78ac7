(** The checked-in suppression file — every entry justified, expirable.

    Format (line-oriented):
    {v
    # Comment lines immediately above an entry are its justification.
    # An entry with no justification is a PARSE ERROR, enforcing the
    # "every allowlist entry carries a written justification" bar.
    rule-id path[:line] [expires=YYYY-MM-DD]
    v}
    Blank lines reset the pending justification (file headers do not leak
    into the first entry).  A file-level entry (no [:line]) suppresses
    every finding of that rule in that file. *)

type entry = {
  rule : string;
  path : string;  (** normalized; matched as a path suffix of the finding *)
  line : int option;
  expires : (int * int * int) option;  (** inclusive (year, month, day) *)
  justification : string;
  source_line : int;  (** line in the allowlist file, for diagnostics *)
}

type t = entry list

val entry_id : entry -> string
(** ["rule path[:line]"] — how reporters name an entry. *)

val parse_date : string -> (int * int * int) option
(** ["YYYY-MM-DD"] with basic range checks. *)

val parse : string -> (t, string) result
(** First malformed or unjustified entry wins the error. *)

val load : path:string -> (t, string) result

type applied = {
  live : Finding.t list;  (** not suppressed — these fail the run *)
  suppressed : (Finding.t * entry) list;
  expired : (Finding.t * entry) list;
      (** matched an expired entry: also present in [live] *)
  stale : entry list;  (** matched nothing — candidates for deletion *)
}

val apply : ?today:(int * int * int) -> t -> Finding.t list -> applied
(** An entry matches a finding on rule equality, a normalized-path
    suffix match and the optional line.  First matching entry wins.  An
    expired entry (never, when [today] is [None]) no longer suppresses:
    its findings return to [live] and the pairing is reported in
    [expired]. *)
