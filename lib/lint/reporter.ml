(* Text rendering of a lint outcome, the human default: one
   compiler-style line per finding plus a summary.  The machine-readable
   report is Sarif's. *)

let summary_line outcome =
  let errors = List.length outcome.Engine.live in
  Printf.sprintf "%d file%s scanned: %d error%s, %d suppressed by allowlist%s"
    outcome.Engine.files
    (if outcome.Engine.files = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    (List.length outcome.Engine.suppressed)
    (match outcome.Engine.stale with
    | [] -> ""
    | l -> Printf.sprintf ", %d stale allowlist entries" (List.length l))

let to_text outcome =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_text f);
      Buffer.add_char b '\n')
    outcome.Engine.live;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf
           "stale allowlist entry [%s] (line %d) matches no finding — \
            delete it\n"
           (Allowlist.entry_id e) e.Allowlist.source_line))
    outcome.Engine.stale;
  Buffer.add_string b (summary_line outcome);
  Buffer.add_char b '\n';
  Buffer.contents b
