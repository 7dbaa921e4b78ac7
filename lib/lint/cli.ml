(* The shared Cmdliner term behind both entry points: the standalone
   rbgp-lint executable and the `rbgp lint` subcommand.  The term returns
   the process exit code (0 clean, 1 findings, 2 configuration error);
   callers decide how to exit.  "today" is an input so this library never
   reads the clock (rule R2 patrols all of lib/, this directory included). *)

open Cmdliner

let default_allowlist = "lint/allowlist.txt"

let dirs_arg =
  Arg.(
    value
    & pos_all string [ "lib"; "bin"; "bench" ]
    & info [] ~docv:"DIR"
        ~doc:"Directories to scan for .ml/.mli files (default: lib bin bench).")

let allowlist_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "allowlist" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Allowlist file (default: $(b,%s) when it exists).  Every \
              entry must carry a '#' justification comment."
             default_allowlist))

let no_allowlist_arg =
  Arg.(
    value & flag
    & info [ "no-allowlist" ] ~doc:"Ignore the allowlist entirely.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the JSON report to stdout instead of text.")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE"
        ~doc:"Also write the JSON report to FILE (the CI artifact).")

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"LIST"
        ~doc:
          "Comma-separated rule ids to run (e.g. $(b,r11-hot-alloc,r13-\\
           comparator-coverage)); other rules are skipped and their \
           allowlist entries are not reported stale.  parse-error always \
           runs.")

let list_rules_arg =
  Arg.(
    value & flag & info [ "list-rules" ] ~doc:"List the rule set and exit.")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"RULE"
        ~doc:"Print the long-form rationale for RULE and exit.")

let graph_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph-out" ] ~docv:"FILE"
        ~doc:
          "Write the call-graph dump (schema rbgp-lint-graph/2) to FILE — \
           the debugging view behind r11/r12.")

let sarif_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sarif-out" ] ~docv:"FILE"
        ~doc:
          "Also write a SARIF 2.1.0 report to FILE (the CI code-scanning \
           artifact; suppressed findings carry their allowlist \
           justification).")

let hot_root_arg =
  Arg.(
    value & opt_all string []
    & info [ "hot-root" ] ~docv:"MOD.NAME"
        ~doc:
          "Add a hot root for r11 by display name (repeatable), on top of \
           the built-in set (Engine.ingest*, Dynamic_alg.serve, \
           Binc.decode_varints*, Proto.encode_edges, Proto.decode_edges).")

let today_arg =
  let date =
    let parse s =
      match Allowlist.parse_date s with
      | Some d -> Ok d
      | None -> Error (`Msg (Printf.sprintf "expected YYYY-MM-DD, got %S" s))
    in
    let print ppf (y, m, d) = Format.fprintf ppf "%04d-%02d-%02d" y m d in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some date) None
    & info [ "today" ] ~docv:"YYYY-MM-DD"
        ~doc:
          "Override the date used for allowlist expiry (for reproducible \
           runs; defaults to the system date).")

let print_rules () =
  List.iter
    (fun (id, desc) -> Printf.printf "%-24s %s\n" id desc)
    Rules.descriptions

(* A selector is either a full rule id (r11-hot-alloc) or its bare
   numeric prefix (r11); the prefix form only matches up to the next
   '-' so r1 never selects r11. *)
let resolve_rule sel =
  if List.mem_assoc sel Rules.descriptions then Some sel
  else
    List.find_map
      (fun (id, _) ->
        let lp = String.length sel in
        if
          String.length id > lp
          && String.equal (String.sub id 0 lp) sel
          && Char.equal id.[lp] '-'
        then Some id
        else None)
      Rules.descriptions

let parse_rules_filter = function
  | None -> Ok None
  | Some spec -> (
      let sels =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> not (String.equal s ""))
      in
      let resolved = List.map (fun s -> (s, resolve_rule s)) sels in
      let bad =
        List.filter_map
          (fun (s, r) -> match r with None -> Some s | Some _ -> None)
          resolved
      in
      match (sels, bad) with
      | [], _ -> Error "--rules: empty rule list"
      | _, [] ->
          Ok (Some (List.filter_map (fun (_, r) -> r) resolved))
      | _, bad ->
          Error
            (Printf.sprintf "--rules: unknown rule id(s) %s (see --list-rules)"
               (String.concat ", " bad)))

let ( let* ) r f = match r with Ok v -> f v | Error msg -> Error msg

let load_allowlist ~no_allowlist ~allowlist_path =
  if no_allowlist then Ok []
  else
    match allowlist_path with
    | Some path -> Allowlist.load ~path
    | None ->
        if Sys.file_exists default_allowlist then
          Allowlist.load ~path:default_allowlist
        else Ok []

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.output_char oc '\n')

let lint ~today ~dirs ~allowlist ~rules ~extra_hot_roots ~json ~json_out
    ~sarif_out ~graph_out =
  let outcome = Engine.run ~today ~allowlist ?rules ~extra_hot_roots ~dirs () in
  Option.iter
    (fun path -> write_file path (Reporter.to_json_string outcome))
    json_out;
  Option.iter (fun path -> write_file path (Sarif.to_string outcome)) sarif_out;
  Option.iter
    (fun path ->
      write_file path (Ljson.to_string (Engine.graph ~extra_hot_roots ~dirs ())))
    graph_out;
  if json then print_endline (Reporter.to_json_string outcome)
  else print_string (Reporter.to_text outcome);
  if outcome.Engine.live = [] then 0 else 1

let run ~today dirs allowlist_path no_allowlist json json_out sarif_out
    graph_out rules_spec list_rules explain hot_roots today_override =
  if list_rules then begin
    print_rules ();
    0
  end
  else
    match explain with
    | Some rule -> (
        match Rules.explain rule with
        | Some text ->
            print_endline text;
            0
        | None ->
            prerr_endline
              ("rbgp-lint: unknown rule " ^ rule ^ " (see --list-rules)");
            2)
    | None -> (
        let today = match today_override with Some d -> d | None -> today in
        let config =
          let* allowlist = load_allowlist ~no_allowlist ~allowlist_path in
          let* rules = parse_rules_filter rules_spec in
          Ok (allowlist, rules)
        in
        match config with
        | Error msg ->
            prerr_endline ("rbgp-lint: " ^ msg);
            2
        | Ok (allowlist, rules) ->
            lint ~today ~dirs ~allowlist ~rules ~extra_hot_roots:hot_roots
              ~json ~json_out ~sarif_out ~graph_out)

let term ~today =
  Term.(
    const (run ~today)
    $ dirs_arg $ allowlist_arg $ no_allowlist_arg $ json_arg $ json_out_arg
    $ sarif_out_arg $ graph_out_arg $ rules_arg $ list_rules_arg
    $ explain_arg $ hot_root_arg $ today_arg)

let doc =
  "Repo-specific static analysis: determinism, domain-safety and hot-path \
   hygiene over lib/, bin/ and bench/"
