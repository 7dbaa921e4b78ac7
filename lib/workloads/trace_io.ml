let save ~path ?comment trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match comment with
      | Some c -> Printf.fprintf oc "# %s\n" c
      | None -> ());
      Printf.fprintf oc "# %d requests\n" (Array.length trace);
      Array.iter (fun e -> Printf.fprintf oc "%d\n" e) trace)

let fail ~path fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Trace_io: %s: %s" path msg))
    fmt

let rec input_request_from ~path ~lineno ic ~n =
  match input_line ic with
  | exception End_of_file -> None
  | line ->
      incr lineno;
      let line = String.trim line in
      if line = "" || line.[0] = '#' then input_request_from ~path ~lineno ic ~n
      else
        match int_of_string_opt line with
        | Some e when e >= 0 && e < n -> Some e
        | Some _ -> fail ~path "line %d: edge out of [0, %d)" !lineno n
        | None -> fail ~path "line %d: not an integer" !lineno

let input_request_opt ?(path = "<channel>") ?lineno ic ~n =
  let lineno = match lineno with Some r -> r | None -> ref 0 in
  input_request_from ~path ~lineno ic ~n
