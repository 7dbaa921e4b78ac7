(** Text and JSON rendering of a lint outcome.

    Text: one compiler-style [file:line:col] line per live finding,
    expired/stale allowlist notices, then a one-line summary.

    JSON (schema ["rbgp-lint/2"]): the CI artifact.  Round-trippable —
    {!findings_of_json} reconstructs the live findings exactly. *)

val to_text : Engine.outcome -> string
val to_json_string : Engine.outcome -> string

val findings_of_json : Ljson.t -> (Finding.t list, string) result
(** Inverse of the ["findings"] array of {!to_json_string}. *)
