(* Drives the rule set over sources: parse with the compiler's own parser
   (compiler-libs — no new dependency, no grammar drift), apply the rules,
   then fold in the allowlist.

   Everything is deterministic: directory walks sort entries, findings
   sort by location, and no wall clock is read. *)

let lint_source ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  let parse_error (e : exn) =
    let loc, msg =
      match Location.error_of_exn e with
      | Some (`Ok err) ->
          let msg =
            Format.asprintf "%a" Location.print_report err
            |> String.split_on_char '\n'
            |> List.map String.trim
            |> List.filter (fun s -> not (String.equal s ""))
            |> String.concat " "
          in
          (err.Location.main.Location.loc, msg)
      | _ -> (Location.curr lexbuf, Printexc.to_string e)
    in
    [ Finding.of_location ~rule:"parse-error" ~file:path loc msg ]
  in
  let findings =
    (* interfaces carry no expressions: only their parse errors apply *)
    if Filename.check_suffix path ".mli" then
      match Parse.interface lexbuf with
      | _ -> []
      | exception e -> parse_error e
    else
      match Parse.implementation lexbuf with
      | structure -> Rules.check_structure ~path structure
      | exception e -> parse_error e
  in
  List.sort Finding.compare findings

(* --- file discovery --------------------------------------------------- *)

let skip_dir name =
  String.equal name "_build"
  || String.equal name "_opam"
  || (String.length name > 0 && Char.equal name.[0] '.')

let scan_dirs dirs =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      let entries = Sys.readdir path in
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          if not (skip_dir name) then walk (Filename.concat path name))
        entries
    end
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then acc := path :: !acc
  in
  List.iter
    (fun dir -> if Sys.file_exists dir then walk dir)
    dirs;
  (* sort_uniq: overlapping dirs ("lib lib/serve") must not double-count
     files — duplicates would double findings *)
  List.sort_uniq String.compare !acc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lint_paths paths =
  let per_file =
    List.concat_map (fun p -> lint_source ~path:p (read_file p)) paths
  in
  List.sort Finding.compare (Rules.missing_mli ~files:paths @ per_file)

(* --- interprocedural pass ---------------------------------------------- *)

(* The evidence beyond the scanned dirs lives beside them: for each
   scanned dir, its sibling directories of the given names (so "lib"
   from the repo root finds "./test", and "../lib" from a test sandbox
   finds "../test").  r13 reads the "test" siblings; r14 reads every
   project directory that is not scanned itself.  When none exists, the
   rule has no evidence and stays silent. *)
let siblings_of ~names dirs =
  List.sort_uniq String.compare
    (List.concat_map
       (fun dir ->
         List.filter_map
           (fun name ->
             let d = Filename.concat (Filename.dirname dir) name in
             if Sys.file_exists d && Sys.is_directory d then Some d else None)
           names)
       dirs)

let project_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let index_of_paths paths =
  Index.of_sources (List.map (fun p -> (p, read_file p)) paths)

let same_site (a : Finding.t) (b : Finding.t) =
  String.equal a.Finding.file b.Finding.file
  && Int.equal a.Finding.line b.Finding.line
  && Int.equal a.Finding.col b.Finding.col

let interprocedural_findings ?extra_hot_roots ~dirs paths =
  let index = index_of_paths paths in
  let effects = Effects.infer ?extra_hot_roots index in
  let r11 = Rules.hot_alloc effects in
  let r12 = Rules.transitive_partial effects in
  let r13 =
    match siblings_of ~names:[ "test" ] dirs with
    | [] -> []
    | test_dirs ->
        let tests = index_of_paths (scan_dirs test_dirs) in
        Rules.comparator_coverage ~index ~tests
  in
  let r14 =
    match siblings_of ~names:project_dirs dirs with
    | [] -> []
    | siblings ->
        (* siblings are indexed for their references only: they stay out
           of the r11/r12 graph (perfbench's Clock would collide with
           lib/util's) and are not linted *)
        let scanned = List.map Finding.normalize_path dirs in
        let unscanned =
          List.filter
            (fun d -> not (List.mem (Finding.normalize_path d) scanned))
            siblings
        in
        let evidence = index_of_paths (scan_dirs unscanned) in
        (* one rule id per site: r13 owns an untested comparator *)
        List.filter
          (fun f -> not (List.exists (same_site f) r13))
          (Rules.unused_export ~index ~evidence)
  in
  List.sort Finding.compare (r11 @ r12 @ r13 @ r14)

let graph ?extra_hot_roots ~dirs () =
  Effects.to_json
    (Effects.infer ?extra_hot_roots (index_of_paths (scan_dirs dirs)))

(* --- top-level run ----------------------------------------------------- *)

type outcome = {
  files : int;
  live : Finding.t list;
  suppressed : (Finding.t * Allowlist.entry) list;
  stale : Allowlist.entry list;
}

let run ?(allowlist = []) ?rules ?extra_hot_roots ~dirs () =
  let paths = scan_dirs dirs in
  let findings =
    List.sort Finding.compare
      (lint_paths paths
      @ interprocedural_findings ?extra_hot_roots ~dirs paths)
  in
  (* --rules filter: selected rules plus parse-error, which is always
     live (an unparseable file silently exempts itself from every rule).
     The allowlist narrows with it so un-selected rules' entries are not
     reported stale. *)
  let findings, allowlist =
    match rules with
    | None -> (findings, allowlist)
    | Some selected ->
        ( List.filter
            (fun (f : Finding.t) ->
              String.equal f.Finding.rule "parse-error"
              || List.mem f.Finding.rule selected)
            findings,
          List.filter
            (fun (e : Allowlist.entry) -> List.mem e.Allowlist.rule selected)
            allowlist )
  in
  let applied = Allowlist.apply allowlist findings in
  {
    files = List.length paths;
    live = applied.Allowlist.live;
    suppressed = applied.Allowlist.suppressed;
    stale = applied.Allowlist.stale;
  }
