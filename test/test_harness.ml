(* Tests for the experiment harness: the registry it builds every
   algorithm through, and smoke-running representative experiments end to
   end (the cheap ones; the full suite is exercised by
   `dune exec bench/main.exe`). *)

module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost
module Trace = Rbgp_ring.Trace
module Simulator = Rbgp_ring.Simulator
module Registry = Rbgp_serve.Registry
module Report = Rbgp_harness.Report
module Stats = Rbgp_util.Stats
module Rng = Rbgp_util.Rng

(* the experiments' name -> algorithm: every streamable registry name and
   the batch-only static-oracle *)
let table_names = Registry.names @ [ "static-oracle" ]

(* a registry build is the constructor it names: the same bill, run for
   run, as the baseline built directly *)
let test_run_alg_matches_simulator () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let rng = Rng.create 1 in
  let trace = Array.init 1_000 (fun _ -> Rng.int rng 32) in
  let run alg = Simulator.run inst alg (Trace.fixed trace) ~steps:1_000 in
  let via_registry =
    Registry.build_for_trace "never-move" ~epsilon:0.5 ~seed:1 ~trace inst
  in
  let direct = run (Rbgp_baselines.Baselines.never_move inst) in
  Alcotest.(check int) "same total"
    (Cost.total direct.Simulator.cost)
    (Cost.total (run via_registry).Simulator.cost);
  Alcotest.(check string) "algorithm name" "never-move"
    via_registry.Rbgp_ring.Online.name

let test_registries () =
  Alcotest.(check (list string))
    "nine streamable algorithms, in order"
    [ "onl-dynamic"; "onl-static"; "dyn/wfa"; "dyn/hst-mw"; "dyn/marking";
      "never-move"; "greedy-colocate"; "counter-threshold";
      "component-learning" ]
    Registry.names;
  Alcotest.(check bool) "static-oracle is batch-only" true
    (match Registry.find "static-oracle" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* every name builds a runnable algorithm, and a streamable one is the
     same algorithm whether or not the trace is handed over *)
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = Array.init 200 (fun i -> i mod 32) in
  let total alg =
    Cost.total (Simulator.run inst alg (Trace.fixed trace) ~steps:200).Simulator.cost
  in
  List.iter
    (fun name ->
      let alg = Registry.build_for_trace name ~epsilon:0.5 ~seed:3 ~trace inst in
      let cost = total alg in
      Alcotest.(check bool) (name ^ " runs") true (cost >= 0);
      if not (String.equal name "static-oracle") then
        Alcotest.(check int)
          (name ^ " ignores the trace")
          cost
          (total ((Registry.find name).Registry.build ~epsilon:0.5 ~seed:3 inst)))
    table_names

(* the experiments' mean and spread over seeds *)
let test_averaged () =
  let samples = Array.of_list (List.map float_of_int [ 1; 2; 3 ]) in
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean samples);
  Alcotest.(check (float 1e-9)) "sd" 1.0 (Stats.stddev samples)

let test_experiment_ids () =
  Alcotest.(check int) "fourteen experiments" 14 (List.length Report.all);
  Alcotest.(check bool) "unknown id raises" true
    (try
       Report.run "e99";
       false
     with Invalid_argument _ -> true)

let with_null_stdout f =
  (* the experiments print tables; keep test output readable *)
  let dev_null = open_out "/dev/null" in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel dev_null) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      close_out dev_null)
    f

let smoke id = with_null_stdout (fun () -> Report.run ~quick:true ~seed:7 id)

let test_smoke_e1 () = smoke "e1"
let test_smoke_e4 () = smoke "e4"
let test_smoke_e5 () = smoke "e5"
let test_smoke_e6 () = smoke "e6"

let () =
  Alcotest.run "rbgp_harness"
    [
      ( "runner",
        [
          Alcotest.test_case "matches simulator" `Quick
            test_run_alg_matches_simulator;
          Alcotest.test_case "registries" `Quick test_registries;
          Alcotest.test_case "averaged" `Quick test_averaged;
        ] );
      ( "report",
        [
          Alcotest.test_case "experiment ids" `Quick test_experiment_ids;
          Alcotest.test_case "e1 smoke" `Slow test_smoke_e1;
          Alcotest.test_case "e4 smoke" `Slow test_smoke_e4;
          Alcotest.test_case "e5 smoke" `Slow test_smoke_e5;
          Alcotest.test_case "e6 smoke" `Slow test_smoke_e6;
        ] );
    ]
