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
let equal a b = compare_finding a b = 0

let to_text f =
  Printf.sprintf "%s:%d:%d: [%s] error: %s" f.file f.line f.col f.rule
    f.message

let to_json f =
  Ljson.Obj
    [
      ("rule", Ljson.Str f.rule);
      ("file", Ljson.Str f.file);
      ("line", Ljson.Num (float_of_int f.line));
      ("col", Ljson.Num (float_of_int f.col));
      ("message", Ljson.Str f.message);
    ]

let of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> None in
  let* rule = Option.bind (Ljson.member "rule" j) Ljson.to_str in
  let* file = Option.bind (Ljson.member "file" j) Ljson.to_str in
  let* line = Option.bind (Ljson.member "line" j) Ljson.to_int in
  let* col = Option.bind (Ljson.member "col" j) Ljson.to_int in
  let* message = Option.bind (Ljson.member "message" j) Ljson.to_str in
  Some { rule; file; line; col; message }
