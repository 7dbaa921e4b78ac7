(** The Cmdliner term behind the [rbgp-lint] executable.

    The term evaluates to the process exit code: 0 clean, 1 live
    findings, 2 configuration error (bad allowlist or rule filter). *)

val parse_rules_filter : string option -> (string list option, string) result
(** Parses a [--rules] spec: comma-separated full rule ids
    ([r11-hot-alloc]) or bare numeric prefixes ([r11]), resolved against
    {!Rules.descriptions}; [None] means all rules.  Exposed for tests. *)

val term : int Cmdliner.Term.t

val doc : string
(** One-line command description. *)
