(* The repository benchmark.  See README.md in this directory.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny]

   Prints a stamp line (host, toolchain, code and seed) and, as the last
   line of its output, one JSON object: whether every check held, how many
   operations were attempted and failed, and the metrics — end-to-end ones
   with --trace 0, per-layer ones with --trace 1.  Normally launched by
   run.py, which builds it first. *)

let workloads =
  [
    ("ingest-never-move", W_engine.run W_engine.ingest_never_move);
    ("serve-onl-dynamic", W_engine.run W_engine.serve_onl_dynamic);
    ("tenants-socket", W_tenants.run);
    ("exp-tables", W_exp.run);
  ]

let out_dir = Filename.concat "perfbench" "_out"

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and tiny = ref false and nproc = ref 0 and commit = ref "unknown"
  and source_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " workload seed (inputs are generated from it)");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: the traced run (per-layer metrics)");
      ("--tiny", Arg.Set tiny, " self-check sizes");
      ("--nproc", Arg.Set_int nproc, " for the stamp");
      ("--commit", Arg.Set_string commit, " for the stamp");
      ("--source-digest", Arg.Set_string source_digest, " for the stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  mkdir_p out_dir;
  let work = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Common.rm_rf work;
  Unix.mkdir work 0o755;
  let res = Res.create () in
  let ctx =
    { Common.seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = !tiny;
      work; res }
  in
  Printf.printf
    "perfbench stamp: {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
     \"ocaml\": %S, \"commit\": %S, \"source_digest\": %S, \"pool_domains\": %d}\n%!"
    !workload !seed !trace !nproc Sys.ocaml_version !commit !source_digest
    (Rbgp_util.Pool.domains ());
  let outcome =
    Fun.protect ~finally:(fun () -> Common.rm_rf work) (fun () ->
        match run ctx with
        | () -> Ok ()
        | exception e -> Error (Printexc.to_string e))
  in
  (match outcome with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("perfbench: " ^ !workload ^ " raised: " ^ msg);
      exit 1);
  if ctx.Common.trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" !workload !seed) in
    Span.write_log path;
    Printf.printf "perfbench spans: %s\n" path
  end;
  print_endline (Res.to_json res ~trace:ctx.Common.trace)
