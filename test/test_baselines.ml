(* Tests for the baseline algorithms: balance preservation, cost
   semantics, and the relationships to the offline comparators that the
   harness relies on (e.g. the static oracle realizing the segmented
   optimum up to its first-request delay). *)

module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost
module Trace = Rbgp_ring.Trace
module Simulator = Rbgp_ring.Simulator
module Assignment = Rbgp_ring.Assignment
module B = Rbgp_baselines.Baselines
module Rng = Rbgp_util.Rng

let uniform_trace ~n ~steps ~seed =
  let rng = Rng.create seed in
  Array.init steps (fun _ -> Rng.int rng n)

let test_never_move () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = uniform_trace ~n:32 ~steps:2_000 ~seed:1 in
  let r =
    Simulator.run inst (B.never_move inst) (Trace.fixed trace) ~steps:2_000
  in
  Alcotest.(check int) "zero migration" 0 r.Simulator.cost.Cost.mig;
  Alcotest.(check int) "max load = k" inst.Instance.k r.Simulator.max_load;
  (* its communication equals the crossing cost of the initial assignment *)
  let expected =
    Array.fold_left
      (fun acc e ->
        if inst.Instance.initial.(e) <> inst.Instance.initial.((e + 1) mod 32)
        then acc + 1
        else acc)
      0 trace
  in
  Alcotest.(check int) "comm = initial crossings" expected
    r.Simulator.cost.Cost.comm

let test_greedy_balance () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = uniform_trace ~n:32 ~steps:5_000 ~seed:2 in
  let r =
    Simulator.run inst (B.greedy_colocate inst) (Trace.fixed trace)
      ~steps:5_000
  in
  (* swaps preserve perfect balance: augmentation 1.0, no violations *)
  Alcotest.(check int) "no violations" 0 r.Simulator.capacity_violations;
  Alcotest.(check int) "max load = k" inst.Instance.k r.Simulator.max_load;
  (* every swap moves exactly two processes *)
  Alcotest.(check int) "even migrations" 0 (r.Simulator.cost.Cost.mig mod 2)

let test_greedy_threshold () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  (* same boundary requested repeatedly: with threshold t the first swap
     happens after t requests *)
  let alg = B.greedy_colocate ~threshold:3 inst in
  let r = Simulator.run inst alg (Trace.fixed [| 7; 7; 7 |]) ~steps:3 in
  Alcotest.(check int) "comm until threshold" 3 r.Simulator.cost.Cost.comm;
  Alcotest.(check int) "then one swap" 2 r.Simulator.cost.Cost.mig

let test_counter_threshold_runs () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let trace = uniform_trace ~n:64 ~steps:5_000 ~seed:3 in
  let alg = B.counter_threshold ~epsilon:0.5 inst in
  let r = Simulator.run inst alg (Trace.fixed trace) ~steps:5_000 in
  Alcotest.(check int) "no violations" 0 r.Simulator.capacity_violations

let test_counter_threshold_stationary () =
  (* hammering one cut edge: the counter player moves it away and then
     pays nothing; total cost stays below 2 theta + movement *)
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let alg = B.counter_threshold ~theta:5 ~epsilon:0.5 inst in
  let trace = Array.make 2_000 15 (* an initial cut edge *) in
  let r = Simulator.run inst alg (Trace.fixed trace) ~steps:2_000 in
  Alcotest.(check bool)
    (Printf.sprintf "cost %d bounded" (Cost.total r.Simulator.cost))
    true
    (Cost.total r.Simulator.cost <= 5 + (4 * inst.Instance.k))

let test_static_oracle_realizes_opt () =
  let inst = Instance.blocks ~n:48 ~ell:4 in
  let trace = uniform_trace ~n:48 ~steps:3_000 ~seed:4 in
  let opt = Rbgp_offline.Static_opt.segmented inst trace in
  let r =
    Simulator.run inst
      (B.static_oracle inst ~trace)
      (Trace.fixed trace) ~steps:3_000
  in
  (* the oracle serves request 0 from the initial assignment and then sits
     in the segmented optimum: totals differ by at most 1 *)
  Alcotest.(check bool)
    (Printf.sprintf "oracle %d vs opt %d" (Cost.total r.Simulator.cost)
       opt.Rbgp_offline.Static_opt.total)
    true
    (abs (Cost.total r.Simulator.cost - opt.Rbgp_offline.Static_opt.total) <= 1);
  Alcotest.(check int) "migration = opt migration"
    opt.Rbgp_offline.Static_opt.migration r.Simulator.cost.Cost.mig

let test_static_oracle_balanced () =
  let inst = Instance.blocks ~n:48 ~ell:4 in
  let trace = uniform_trace ~n:48 ~steps:1_000 ~seed:5 in
  let r =
    Simulator.run inst
      (B.static_oracle inst ~trace)
      (Trace.fixed trace) ~steps:1_000
  in
  Alcotest.(check int) "offline-feasible (augmentation 1)" 0
    r.Simulator.capacity_violations

let test_component_learning_balance () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let trace = uniform_trace ~n:64 ~steps:5_000 ~seed:6 in
  let r =
    Simulator.run inst
      (B.component_learning inst)
      (Trace.fixed trace) ~steps:5_000
  in
  Alcotest.(check int) "offline-feasible" 0 r.Simulator.capacity_violations;
  Alcotest.(check int) "max load = k" inst.Instance.k r.Simulator.max_load

let test_component_learning_converges () =
  (* on perfectly partitionable demand the learner reaches zero marginal
     cost: the second half of a long trace must be (nearly) free *)
  let n = 64 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create 7 in
  let trace =
    match
      Rbgp_workloads.Workloads.partitionable ~n ~ell ~steps:10_000 ~offset:5 rng
    with
    | Trace.Fixed a -> a
    | _ -> assert false
  in
  let alg = B.component_learning inst in
  let totals = Array.make 10_000 0 in
  ignore
    (Simulator.run
       ~on_step:(fun t c -> totals.(t) <- Cost.total c)
       inst alg (Trace.fixed trace) ~steps:10_000);
  let second_half = totals.(9_999) - totals.(4_999) in
  Alcotest.(check int) "second half is free" 0 second_half;
  (* and the hidden partition is fully learned: every hidden block is
     monochromatic under the final assignment *)
  let a = alg.Rbgp_ring.Online.assignment () in
  let k = inst.Instance.k in
  for b = 0 to ell - 1 do
    let base = (5 + (b * k)) mod n in
    let s0 = Assignment.server_of a base in
    for j = 1 to k - 1 do
      Alcotest.(check int)
        (Printf.sprintf "block %d homogeneous" b)
        s0
        (Assignment.server_of a ((base + j) mod n))
    done
  done

let test_component_learning_caps_components () =
  (* genuine ring demand: components would exceed k; the learner must not
     build them (and must stay balanced) *)
  let inst = Instance.blocks ~n:32 ~ell:2 in
  let trace = Array.init 2_000 (fun i -> i mod 32) in
  let r =
    Simulator.run inst
      (B.component_learning inst)
      (Trace.fixed trace) ~steps:2_000
  in
  Alcotest.(check int) "still balanced" 0 r.Simulator.capacity_violations

let () =
  Alcotest.run "rbgp_baselines"
    [
      ( "never-move",
        [ Alcotest.test_case "semantics" `Quick test_never_move ] );
      ( "greedy-colocate",
        [
          Alcotest.test_case "balance" `Quick test_greedy_balance;
          Alcotest.test_case "threshold" `Quick test_greedy_threshold;
        ] );
      ( "counter-threshold",
        [
          Alcotest.test_case "runs clean" `Quick test_counter_threshold_runs;
          Alcotest.test_case "stationary" `Quick test_counter_threshold_stationary;
        ] );
      ( "static-oracle",
        [
          Alcotest.test_case "realizes segmented OPT" `Quick
            test_static_oracle_realizes_opt;
          Alcotest.test_case "balanced" `Quick test_static_oracle_balanced;
        ] );
      ( "component-learning",
        [
          Alcotest.test_case "balance" `Quick test_component_learning_balance;
          Alcotest.test_case "converges on partitionable demand" `Quick
            test_component_learning_converges;
          Alcotest.test_case "caps components on ring demand" `Quick
            test_component_learning_caps_components;
        ] );
    ]
