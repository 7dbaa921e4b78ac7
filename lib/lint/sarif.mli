(** SARIF 2.1.0 rendering of a lint outcome — the linter's one
    machine-readable report, and the CI code-scanning artifact.

    Live findings become results at level ["error"]; suppressed
    findings are emitted with a [suppressions] entry carrying the
    allowlist's written justification.  Whole-file findings (line 0)
    omit the region; columns convert between the 0-based compiler
    convention and SARIF's 1-based [startColumn]. *)

val to_string : Engine.outcome -> string
