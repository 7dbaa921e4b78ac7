(* Minimal JSON tree and printer.

   The linter writes machine-readable files (the SARIF report, the
   call-graph dump) without adding an opam dependency, so this prints
   just the JSON it needs: objects, arrays, strings with standard
   escapes, numbers, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_num b v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else Buffer.add_string b (Printf.sprintf "%.17g" v)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> add_num b v
  | Str s -> escape_string b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b
