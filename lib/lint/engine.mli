(** The linter driver: parse sources with the compiler's own parser
    (compiler-libs), run the rules, fold in the allowlist.

    Deterministic by construction: directory walks sort entries, findings
    sort by location, and no wall clock is read. *)

val lint_source : path:string -> string -> Finding.t list
(** Parse one [.ml]/[.mli] (selected by the [path] suffix) from a string
    and run every per-file rule (interfaces only parse).  Unparseable
    input yields a single [parse-error] finding.  Sorted by location. *)

val scan_dirs : string list -> string list
(** All [.ml]/[.mli] files under the given directories, sorted and
    deduplicated (overlapping directories such as ["lib lib/serve"] count
    each file once); skips [_build], [_opam] and dot-directories.
    Missing directories are ignored. *)

val graph :
  ?extra_hot_roots:string list -> dirs:string list -> unit -> Ljson.t
(** The call-graph dump ([--graph-out]): schema ["rbgp-lint-graph/2"], a
    pure function of the sources on disk. *)

type outcome = {
  files : int;
  live : Finding.t list;  (** unsuppressed findings — these fail the run *)
  suppressed : (Finding.t * Allowlist.entry) list;
  stale : Allowlist.entry list;
}

val run :
  ?allowlist:Allowlist.t ->
  ?rules:string list ->
  ?extra_hot_roots:string list ->
  dirs:string list ->
  unit ->
  outcome
(** Every per-file rule and r6 over the files under [dirs], then the
    interprocedural pass: r11/r12 over their call graph, r13 against the
    sibling ["test"] directories and r14 against the sibling project
    directories ([lib], [bin], [bench], [perfbench], [examples], [test])
    that [dirs] does not include.  Siblings are indexed for their
    references only, never linted; with none on disk, r13 and r14 stay
    silent.

    [rules] restricts the run to the named rule ids ([parse-error] stays
    live regardless — an unparseable file must not exempt itself); the
    allowlist narrows with it so entries for unselected rules are not
    reported stale.  [extra_hot_roots] adds display names ("Mod.name")
    to r11's built-in hot-root set. *)
