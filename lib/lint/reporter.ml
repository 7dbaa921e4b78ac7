(* Text and JSON rendering of a lint outcome.

   The text form is the human default: one compiler-style line per
   finding plus a summary.  The JSON form (schema rbgp-lint/2) is the CI
   artifact and the round-trippable source of truth — Finding.of_json
   reconstructs every finding from it. *)

let summary_line outcome =
  let errors = List.length outcome.Engine.live in
  Printf.sprintf "%d file%s scanned: %d error%s, %d suppressed by allowlist%s%s"
    outcome.Engine.files
    (if outcome.Engine.files = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    (List.length outcome.Engine.suppressed)
    (match outcome.Engine.expired with
    | [] -> ""
    | l -> Printf.sprintf ", %d under EXPIRED allowlist entries" (List.length l))
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
    (fun (f, e) ->
      Buffer.add_string b
        (Printf.sprintf
           "%s: allowlist entry [%s] EXPIRED %s — finding is live again\n"
           (Finding.to_text f) (Allowlist.entry_id e)
           (match e.Allowlist.expires with
           | Some (y, m, d) -> Printf.sprintf "%04d-%02d-%02d" y m d
           | None -> ""))
    )
    outcome.Engine.expired;
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

let entry_json (e : Allowlist.entry) =
  Ljson.Obj
    [
      ("entry", Ljson.Str (Allowlist.entry_id e));
      ("justification", Ljson.Str e.Allowlist.justification);
      ( "expires",
        match e.Allowlist.expires with
        | Some (y, m, d) ->
            Ljson.Str (Printf.sprintf "%04d-%02d-%02d" y m d)
        | None -> Ljson.Null );
    ]

let to_json outcome =
  Ljson.Obj
    [
      ("schema", Ljson.Str "rbgp-lint/2");
      ("files_scanned", Ljson.Num (float_of_int outcome.Engine.files));
      ("findings", Ljson.Arr (List.map Finding.to_json outcome.Engine.live));
      ( "suppressed",
        Ljson.Arr
          (List.map
             (fun (f, e) ->
               match Finding.to_json f with
               | Ljson.Obj fields ->
                   Ljson.Obj
                     (fields @ [ ("allowlist", entry_json e) ])
               | other -> other)
             outcome.Engine.suppressed) );
      ( "expired",
        Ljson.Arr
          (List.map (fun (_, e) -> entry_json e) outcome.Engine.expired) );
      ("stale_allowlist", Ljson.Arr (List.map entry_json outcome.Engine.stale));
      ( "summary",
        Ljson.Obj
          [
            ("errors", Ljson.Num (float_of_int (List.length outcome.Engine.live)));
            ( "suppressed",
              Ljson.Num (float_of_int (List.length outcome.Engine.suppressed))
            );
            ("stale", Ljson.Num (float_of_int (List.length outcome.Engine.stale)));
          ] );
    ]

let to_json_string outcome = Ljson.to_string (to_json outcome)

let findings_of_json json =
  match Option.bind (Ljson.member "findings" json) Ljson.to_list with
  | None -> Error "report: missing \"findings\" array"
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match Finding.of_json item with
            | Some f -> go (f :: acc) rest
            | None -> Error ("report: malformed finding " ^ Ljson.to_string item))
      in
      go [] items
