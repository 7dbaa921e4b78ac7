(** Text rendering of a lint outcome: one compiler-style [file:line:col]
    line per live finding, stale allowlist notices, then a one-line
    summary.  The machine-readable report is {!Sarif}. *)

val to_text : Engine.outcome -> string
