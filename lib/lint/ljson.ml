(* Minimal JSON tree, printer and parser.

   The linter must emit and re-read machine-readable reports (CI
   artifacts) without adding an opam dependency, so this implements just
   the JSON subset the reporter produces: objects, arrays, strings with
   standard escapes, numbers, booleans and null.  \uXXXX escapes decode
   for ASCII code points only — the reporter never emits anything else. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------- *)

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

(* --- parsing --------------------------------------------------------- *)

exception Parse_error of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char b e;
                go ()
            | 'n' ->
                Buffer.add_char b '\n';
                go ()
            | 'r' ->
                Buffer.add_char b '\r';
                go ()
            | 't' ->
                Buffer.add_char b '\t';
                go ()
            | 'b' ->
                Buffer.add_char b '\b';
                go ()
            | 'f' ->
                Buffer.add_char b '\012';
                go ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some v -> v
                  | None -> fail "bad \\u escape"
                in
                if code > 0x7f then fail "non-ASCII \\u escape unsupported";
                Buffer.add_char b (Char.chr code);
                go ()
            | _ -> fail "unknown escape")
        | c ->
            Buffer.add_char b c;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ------------------------------------------------------- *)

let member key = function
  | Obj fields -> (
      match List.find_opt (fun (k, _) -> String.equal k key) fields with
      | Some (_, v) -> Some v
      | None -> None)
  | _ -> None

let to_list = function Arr items -> Some items | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None
