(* The checked-in allowlist: every suppression carries a written
   justification.

   File format (line-oriented):

     # One or more comment lines immediately above an entry are its
     # justification.  An entry without a justification is a parse error —
     # the acceptance bar is "every allowlist entry carries a written
     # justification", enforced here rather than by review.
     rule-id path[:line]

     (blank lines reset the pending justification, so file headers do not
      leak into the first entry; any field after the path is a parse
      error naming it)

   Matching is by rule id and normalized-path suffix, so the same file
   works from the repository root ("lib/util/pool.ml") and from the test
   sandbox ("../lib/util/pool.ml").  A file-level entry (no :line)
   suppresses every finding of that rule in the file — deliberate: line
   numbers churn, and the justification is about the file's design, not
   one occurrence. *)

type entry = {
  rule : string;
  path : string;
  line : int option;
  justification : string;
  source_line : int;  (* line in the allowlist file, for error messages *)
}

type t = entry list

let entry_id e =
  Printf.sprintf "%s %s%s" e.rule e.path
    (match e.line with Some l -> Printf.sprintf ":%d" l | None -> "")

let parse source =
  let lines = String.split_on_char '\n' source in
  let entries = ref [] in
  let pending = ref [] in
  let error = ref None in
  let fail lineno msg =
    if Option.is_none !error then
      error := Some (Printf.sprintf "allowlist line %d: %s" lineno msg)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if String.equal line "" then pending := []
      else if String.length line > 0 && Char.equal line.[0] '#' then
        pending :=
          String.trim (String.sub line 1 (String.length line - 1)) :: !pending
      else
        match
          List.filter
            (fun s -> not (String.equal s ""))
            (String.split_on_char ' ' line)
        with
        | _ :: _ :: field :: _ ->
            fail lineno (Printf.sprintf "unknown field %S after the path" field)
        | [ rule; target ] ->
            let path, line_opt =
              match String.rindex_opt target ':' with
              | Some j -> (
                  let p = String.sub target 0 j in
                  let l = String.sub target (j + 1) (String.length target - j - 1) in
                  match int_of_string_opt l with
                  | Some l -> (p, Some l)
                  | None -> (target, None))
              | None -> (target, None)
            in
            let justification =
              String.concat " " (List.rev !pending) |> String.trim
            in
            if String.equal justification "" then
              fail lineno
                (Printf.sprintf
                   "entry %S has no justification; add a '#' comment line \
                    above it explaining why the finding is safe"
                   line)
            else
              entries :=
                {
                  rule;
                  path = Finding.normalize_path path;
                  line = line_opt;
                  justification;
                  source_line = lineno;
                }
                :: !entries;
            pending := []
        | _ -> fail lineno (Printf.sprintf "malformed entry %S" line))
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> Ok (List.rev !entries)

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> parse source
  | exception Sys_error msg -> Error msg

(* Suffix match on normalized paths: "lib/util/pool.ml" matches findings
   from both "lib/util/pool.ml" and "../lib/util/pool.ml" (normalization
   strips the "../"), and an entry may also give a deeper-rooted path. *)
let path_matches ~entry_path ~file =
  String.equal entry_path file
  ||
  let le = String.length entry_path and lf = String.length file in
  lf > le + 1
  && Char.equal file.[lf - le - 1] '/'
  && String.equal (String.sub file (lf - le) le) entry_path

let matches e (f : Finding.t) =
  String.equal e.rule f.Finding.rule
  && path_matches ~entry_path:e.path ~file:f.Finding.file
  && match e.line with None -> true | Some l -> l = f.Finding.line

type applied = {
  live : Finding.t list;
  suppressed : (Finding.t * entry) list;
  stale : entry list;
}

let apply t findings =
  let used = Hashtbl.create 16 in
  let live = ref [] and suppressed = ref [] in
  List.iter
    (fun f ->
      match List.find_opt (fun e -> matches e f) t with
      | Some e ->
          Hashtbl.replace used e.source_line ();
          suppressed := (f, e) :: !suppressed
      | None -> live := f :: !live)
    findings;
  let stale =
    List.filter (fun e -> not (Hashtbl.mem used e.source_line)) t
  in
  { live = List.rev !live; suppressed = List.rev !suppressed; stale }
