(* Robustness and failure injection: non-canonical initial layouts,
   extreme instance shapes, and misbehaving inputs.

   The rest of the suite runs on the canonical blocks layout; the paper's
   algorithms must work from ANY balanced initial assignment (the slicing
   procedure seeds one interval per initial cut edge, of which a scattered
   layout has up to n).  These tests run both core algorithms from random
   balanced layouts and from adversarially fragmented ones, check capacity
   and structural invariants throughout, and verify the documented error
   behaviour for malformed inputs. *)

module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost
module Trace = Rbgp_ring.Trace
module Simulator = Rbgp_ring.Simulator
module Rng = Rbgp_util.Rng

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* a random balanced assignment: shuffle the blocks layout *)
let random_layout ~n ~ell rng =
  let a = Array.init n (fun i -> i * ell / n) in
  Rng.shuffle rng a;
  a

(* maximally fragmented: processes dealt round-robin, every edge a cut *)
let fragmented_layout ~n ~ell = Array.init n (fun i -> i mod ell)

let layout_gen =
  QCheck2.Gen.(
    oneofl [ (24, 3); (32, 4); (48, 4) ] >>= fun (n, ell) ->
    int_range 0 10_000 >>= fun seed ->
    bool >|= fun fragmented ->
    let initial =
      if fragmented then fragmented_layout ~n ~ell
      else random_layout ~n ~ell (Rng.create seed)
    in
    (n, ell, seed, initial))

let run_core_on_layout (n, ell, seed, initial) =
  let inst = Instance.make ~n ~ell ~k:(n / ell) ~initial () in
  let rng = Rng.create (seed + 1) in
  let steps = 1_500 in
  let trace =
    Rbgp_workloads.Workloads.uniform ~n ~steps (Rng.split rng)
  in
  let dyn =
    Rbgp_core.Dynamic_alg.online
      (Rbgp_core.Dynamic_alg.create ~epsilon:0.5 inst (Rng.split rng))
  in
  let r1 = Simulator.run inst dyn trace ~steps in
  let st = Rbgp_core.Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
  let r2 = Simulator.run inst (Rbgp_core.Static_alg.online st) trace ~steps in
  let consistent =
    match
      Rbgp_core.Clustering.check_consistency (Rbgp_core.Static_alg.clustering st)
    with
    | Ok () -> true
    | Error _ -> false
  in
  r1.Simulator.capacity_violations = 0
  && r2.Simulator.capacity_violations = 0
  && consistent

let test_random_layouts =
  qtest "core algorithms run clean from arbitrary balanced layouts"
    layout_gen run_core_on_layout

let test_minimal_instances () =
  (* the smallest rings the model admits: n = k + 1 and n = 2k *)
  List.iter
    (fun (n, ell) ->
      let inst = Instance.blocks ~n ~ell in
      let rng = Rng.create 3 in
      let steps = 500 in
      let trace = Rbgp_workloads.Workloads.uniform ~n ~steps (Rng.split rng) in
      let dyn =
        Rbgp_core.Dynamic_alg.online
          (Rbgp_core.Dynamic_alg.create ~epsilon:0.5 inst (Rng.split rng))
      in
      let r = Simulator.run inst dyn trace ~steps in
      Alcotest.(check int)
        (Printf.sprintf "n=%d dynamic clean" n)
        0 r.Simulator.capacity_violations;
      let st = Rbgp_core.Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
      let r2 = Simulator.run inst (Rbgp_core.Static_alg.online st) trace ~steps in
      Alcotest.(check int)
        (Printf.sprintf "n=%d static clean" n)
        0 r2.Simulator.capacity_violations)
    [ (4, 2); (6, 2); (6, 3); (9, 3) ]

let test_underfull_instances () =
  (* n < ell * k: spare capacity everywhere *)
  let inst = Instance.make ~n:20 ~ell:4 ~k:8 () in
  let rng = Rng.create 5 in
  let steps = 1_000 in
  let trace = Rbgp_workloads.Workloads.uniform ~n:20 ~steps (Rng.split rng) in
  let dyn =
    Rbgp_core.Dynamic_alg.online
      (Rbgp_core.Dynamic_alg.create ~epsilon:0.5 inst (Rng.split rng))
  in
  let r = Simulator.run inst dyn trace ~steps in
  Alcotest.(check int) "dynamic clean" 0 r.Simulator.capacity_violations;
  let st = Rbgp_core.Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
  let r2 = Simulator.run inst (Rbgp_core.Static_alg.online st) trace ~steps in
  Alcotest.(check int) "static clean" 0 r2.Simulator.capacity_violations

let test_single_server_rejected () =
  (* n <= k: the static algorithm needs at least one initial cut *)
  let inst = Instance.make ~n:8 ~ell:2 ~k:8 () in
  Alcotest.(check bool) "slicing refuses n <= k" true
    (try
       ignore (Rbgp_core.Static_alg.create ~epsilon:0.5 inst (Rng.create 0));
       false
     with Invalid_argument _ -> true)

let test_malformed_trace_rejected () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let alg = Rbgp_baselines.Baselines.never_move inst in
  Alcotest.(check bool) "edge out of range rejected" true
    (try
       ignore (Simulator.run inst alg (Trace.fixed [| 0; 99 |]) ~steps:2);
       false
     with Invalid_argument _ -> true);
  let adaptive_bad = Trace.adaptive (fun _ _ -> -1) in
  Alcotest.(check bool) "adaptive out of range rejected" true
    (try
       ignore (Simulator.run inst alg adaptive_bad ~steps:1);
       false
     with Invalid_argument _ -> true)

let test_cheating_algorithm_caught () =
  (* an algorithm that silently overloads a server: the simulator must
     refuse to let it "win" *)
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Rbgp_ring.Assignment.create inst in
  let cheater =
    Rbgp_ring.Online.make ~name:"cheater" ~augmentation:1.0
      ~assignment:(fun () -> a)
      ~serve:(fun _ ->
        for p = 0 to 7 do
          Rbgp_ring.Assignment.set a p 0
        done)
      ~save:ignore ~load:ignore
  in
  Alcotest.(check bool) "overload caught" true
    (try
       ignore (Simulator.run inst cheater (Trace.fixed [| 0 |]) ~steps:1);
       false
     with Failure _ -> true)

let test_determinism_across_layouts =
  qtest ~count:15 "same seed, same costs, regardless of layout source"
    layout_gen
    (fun (n, ell, seed, initial) ->
      let run () =
        let inst = Instance.make ~n ~ell ~k:(n / ell) ~initial () in
        let rng = Rng.create (seed + 7) in
        let steps = 500 in
        let trace = Rbgp_workloads.Workloads.zipf ~n ~steps (Rng.split rng) in
        let st = Rbgp_core.Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
        let r = Simulator.run inst (Rbgp_core.Static_alg.online st) trace ~steps in
        Cost.total r.Simulator.cost
      in
      run () = run ())

let () =
  Alcotest.run "rbgp_robustness"
    [
      ( "layouts",
        [
          test_random_layouts;
          Alcotest.test_case "minimal instances" `Quick test_minimal_instances;
          Alcotest.test_case "underfull instances" `Quick test_underfull_instances;
          Alcotest.test_case "single server rejected" `Quick
            test_single_server_rejected;
          test_determinism_across_layouts;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "malformed trace" `Quick test_malformed_trace_rejected;
          Alcotest.test_case "cheating algorithm" `Quick
            test_cheating_algorithm_caught;
        ] );
    ]
