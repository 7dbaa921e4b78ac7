(* Tests for the Section-3 machinery: the shifted interval decomposition,
   the dynamic-model online algorithm (load bound of Lemma 3.1, the
   Observation 3.2 cost dominances, determinism), and the well-behaved
   clustering strategy of Lemma 3.4 replayed against exact dynamic optima
   (invariants (IH)/(IM)/(IS) and the lemma's cost bound). *)

module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost
module Trace = Rbgp_ring.Trace
module Simulator = Rbgp_ring.Simulator
module Intervals = Rbgp_ring.Intervals
module Dyn = Rbgp_core.Dynamic_alg
module Wb = Rbgp_core.Well_behaved
module Rng = Rbgp_util.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- interval decomposition -------------------------------------------- *)

let dec_k_gen =
  QCheck2.Gen.(
    int_range 2 8 >>= fun ell ->
    int_range 2 20 >>= fun k ->
    let n = ell * k in
    float_range 0.1 1.5 >>= fun epsilon ->
    int_range 0 (n - 1) >|= fun shift ->
    (k, Intervals.make ~n ~k ~epsilon ~shift))

let dec_gen = QCheck2.Gen.(dec_k_gen >|= snd)

let test_locate_consistency =
  qtest ~count:200 "every edge is in exactly one interval" dec_gen (fun dec ->
      let n = dec.Intervals.n in
      let ok = ref true in
      for e = 0 to n - 1 do
        let i, local = Intervals.locate dec e in
        if Intervals.to_global dec i local <> e then ok := false;
        if local < 0 || local >= Intervals.width dec i then ok := false
      done;
      !ok)

let test_edges_partition =
  qtest ~count:200 "interval edge lists partition the ring" dec_gen
    (fun dec ->
      let n = dec.Intervals.n in
      let seen = Array.make n 0 in
      for i = 0 to dec.Intervals.ell' - 1 do
        for local = 0 to Intervals.width dec i - 1 do
          let e = Intervals.to_global dec i local in
          seen.(e) <- seen.(e) + 1
        done
      done;
      Array.for_all (( = ) 1) seen)

let test_widths =
  qtest ~count:200 "widths: near-equal, wider than k, summing to n" dec_k_gen
    (fun (k, dec) ->
      let widths = dec.Intervals.widths in
      let sum = Array.fold_left ( + ) 0 widths in
      let mn = Array.fold_left min widths.(0) widths in
      let mx = Array.fold_left max widths.(0) widths in
      (* every width exceeds k, so any balanced schedule keeps a cut edge
         inside every interval (the Lemma 3.6 prerequisite) *)
      sum = dec.Intervals.n && mx - mn <= 1 && mn >= k + 1)

let cuts_gen =
  QCheck2.Gen.(
    dec_gen >>= fun dec ->
    let pick_cut i =
      int_range 0 (Intervals.width dec i - 1) >|= fun local ->
      Intervals.to_global dec i local
    in
    let rec all i acc =
      if i = dec.Intervals.ell' then return (List.rev acc)
      else pick_cut i >>= fun c -> all (i + 1) (c :: acc)
    in
    all 0 [] >|= fun cuts -> (dec, Array.of_list cuts))

let test_slices_partition =
  qtest ~count:400 "slices of arbitrary valid cuts partition the ring"
    cuts_gen (fun (dec, cuts) ->
      let n = dec.Intervals.n in
      let covered = Array.make n 0 in
      Array.iter
        (fun (_, seg) ->
          Rbgp_ring.Segment.iter (fun p -> covered.(p) <- covered.(p) + 1) seg)
        (Intervals.slices_of_cuts dec cuts);
      Array.for_all (( = ) 1) covered)

let test_slices_bounded =
  qtest ~count:400 "slice lengths respect the max_slice_len bound" cuts_gen
    (fun (dec, cuts) ->
      Array.for_all
        (fun (_, seg) ->
          Rbgp_ring.Segment.length seg <= Intervals.max_slice_len dec)
        (Intervals.slices_of_cuts dec cuts))

let test_slices_one_per_server =
  qtest ~count:200 "each server owns exactly one slice" cuts_gen
    (fun (dec, cuts) ->
      let owners =
        Array.to_list (Intervals.slices_of_cuts dec cuts) |> List.map fst
      in
      List.sort compare owners = List.init dec.Intervals.ell' (fun i -> i))

let test_intervals_validation () =
  Alcotest.check_raises "bad shift"
    (Invalid_argument "Intervals.make: shift out of [0, n)") (fun () ->
      ignore (Intervals.make ~n:16 ~k:4 ~epsilon:0.5 ~shift:16));
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Intervals.make: epsilon must be positive") (fun () ->
      ignore (Intervals.make ~n:16 ~k:4 ~epsilon:0.0 ~shift:0))

(* --- dynamic algorithm --------------------------------------------------- *)

let run_dyn ?(epsilon = 0.5) ~n ~ell ~steps ~seed trace_of =
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create seed in
  let alg = Dyn.create ~epsilon inst (Rng.split rng) in
  let trace = trace_of inst (Rng.split rng) in
  let r = Simulator.run inst (Dyn.online alg) trace ~steps in
  (inst, alg, r)

let workloads n steps rng =
  Rbgp_workloads.Workloads.all_fixed ~n ~steps rng

let test_dyn_load_bound () =
  (* Lemma 3.1: never exceeds the claimed augmentation, on all workloads *)
  let n = 96 and ell = 6 and steps = 4_000 in
  let rng = Rng.create 1 in
  List.iter
    (fun (name, trace) ->
      let inst = Instance.blocks ~n ~ell in
      let alg = Dyn.create ~epsilon:0.5 inst (Rng.split rng) in
      let r = Simulator.run inst (Dyn.online alg) trace ~steps in
      Alcotest.(check int) (name ^ ": no violations") 0 r.Simulator.capacity_violations)
    (workloads n steps (Rng.split rng))

let test_dyn_cuts_inside_intervals () =
  let _, alg, _ =
    run_dyn ~n:64 ~ell:4 ~steps:3_000 ~seed:2 (fun inst rng ->
        Rbgp_workloads.Workloads.uniform ~n:inst.Instance.n ~steps:3_000 rng)
  in
  let dec = Dyn.decomposition alg in
  Array.iteri
    (fun i cut ->
      Alcotest.(check int)
        (Printf.sprintf "cut %d inside interval %d" cut i)
        i
        (fst (Intervals.locate dec cut)))
    (Dyn.cut_edges alg)

let test_dyn_observation_32 () =
  (* Observation 3.2: simulator costs are dominated by the interval costs,
     modulo the one-time alignment migration of the first step *)
  let n = 64 and ell = 4 and steps = 4_000 in
  let inst, alg, r =
    run_dyn ~n ~ell ~steps ~seed:3 (fun inst rng ->
        Rbgp_workloads.Workloads.zipf ~n:inst.Instance.n ~steps rng)
  in
  ignore inst;
  (* a billed communication lands on some interval's current cut; the MTS
     convention charges the hit at the NEW state, so a dodged request shows
     up as movement instead of a hit — hence the hit+move majorant *)
  Alcotest.(check bool) "comm <= sum hit + sum move" true
    (float_of_int r.Simulator.cost.Cost.comm
    <= Dyn.interval_hit_cost alg +. Dyn.interval_move_cost alg +. 1e-9);
  (* the overlap-free decomposition makes migration = cut movement, plus
     the one-time alignment with the initial assignment (<= n) *)
  Alcotest.(check bool) "mig <= sum move + n" true
    (float_of_int r.Simulator.cost.Cost.mig
    <= Dyn.interval_move_cost alg +. float_of_int n +. 1e-9)

let test_dyn_assignment_matches_cuts () =
  (* the live assignment must always equal the one its cut edges induce *)
  let inst = Instance.blocks ~n:96 ~ell:6 in
  let rng = Rng.create 23 in
  let alg = Dyn.create ~epsilon:0.5 inst (Rng.split rng) in
  let online = Dyn.online alg in
  let check () =
    let dec = Dyn.decomposition alg in
    let expected = Array.make 96 (-1) in
    Array.iter
      (fun (server, seg) ->
        Rbgp_ring.Segment.iter (fun p -> expected.(p) <- server) seg)
      (Intervals.slices_of_cuts dec (Dyn.cut_edges alg));
    let actual =
      Rbgp_ring.Assignment.to_array (online.Rbgp_ring.Online.assignment ())
    in
    Alcotest.(check (array int)) "assignment = slices of cuts" expected actual
  in
  check ();
  for _ = 1 to 2_000 do
    online.Rbgp_ring.Online.serve (Rng.int rng 96)
  done;
  check ()

let test_dyn_deterministic_given_seed () =
  let run () =
    let _, _, r =
      run_dyn ~n:64 ~ell:4 ~steps:2_000 ~seed:77 (fun inst rng ->
          Rbgp_workloads.Workloads.rotating ~n:inst.Instance.n ~steps:2_000 rng)
    in
    (r.Simulator.cost.Cost.comm, r.Simulator.cost.Cost.mig)
  in
  Alcotest.(check (pair int int)) "reproducible" (run ()) (run ())

let test_dyn_shift_range () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  for seed = 0 to 20 do
    let alg = Dyn.create ~epsilon:0.5 inst (Rng.create seed) in
    Alcotest.(check bool) "shift in range" true
      (let shift = (Dyn.decomposition alg).Intervals.shift in
       shift >= 0 && shift < inst.Instance.n)
  done

let test_dyn_solver_variants () =
  (* every MTS solver plugs in and respects the load bound *)
  let n = 64 and ell = 4 and steps = 1_500 in
  let inst = Instance.blocks ~n ~ell in
  List.iter
    (fun (name, solver) ->
      let rng = Rng.create 9 in
      let alg = Dyn.create ~mts:solver ~epsilon:0.5 inst (Rng.split rng) in
      let trace =
        Rbgp_workloads.Workloads.uniform ~n ~steps (Rng.split rng)
      in
      let r = Simulator.run inst (Dyn.online alg) trace ~steps in
      Alcotest.(check int) (name ^ " violations") 0 r.Simulator.capacity_violations)
    [
      ("wfa", Rbgp_mts.Work_function.solver);
      ("smin", Rbgp_mts.Smin_mw.solver);
      ("hst", Rbgp_mts.Hst_mts.solver);
      ("marking", Rbgp_mts.Marking.solver);
    ]

let test_dyn_epsilon_too_small () =
  (* ell' > ell must be rejected: n = ell * k with epsilon tiny makes
     k' = k + 1 and ell' = ceil(n / (k+1)) = ell when k >= ... pick a case
     where it genuinely overflows: ell' can never exceed ell for valid
     instances with epsilon > 0, so instead check creation succeeds across
     epsilons *)
  let inst = Instance.blocks ~n:64 ~ell:4 in
  List.iter
    (fun epsilon ->
      let alg = Dyn.create ~epsilon inst (Rng.create 0) in
      let dec = Dyn.decomposition alg in
      Alcotest.(check bool) "ell' <= ell" true (dec.Intervals.ell' <= 4))
    [ 0.01; 0.1; 0.5; 1.0; 2.0 ]

(* --- well-behaved strategy (Lemma 3.4) ----------------------------------- *)

let wb_cases =
  [ (6, 3, "uniform"); (6, 3, "rotating"); (8, 2, "uniform");
    (8, 2, "hotspot"); (9, 3, "uniform"); (10, 2, "rotating") ]

let make_trace name n steps rng =
  match name with
  | "uniform" -> Rbgp_workloads.Workloads.uniform ~n ~steps rng
  | "rotating" ->
      Rbgp_workloads.Workloads.rotating ~n ~steps ~arc:2 ~period:7 rng
  | "hotspot" -> Rbgp_workloads.Workloads.hotspot ~n ~steps ~arc:2 rng
  | _ -> assert false

let test_wb_replay () =
  let steps = 300 in
  let epsilon = 0.25 in
  List.iter
    (fun (n, ell, wname) ->
      let inst = Instance.blocks ~n ~ell in
      let rng = Rng.create (n + ell) in
      let trace =
        match make_trace wname n steps rng with
        | Trace.Fixed a -> a
        | _ -> assert false
      in
      let dp = Rbgp_offline.Dynamic_opt.enumerate_states inst () in
      let schedule, opt = Rbgp_offline.Dynamic_opt.solve_schedule dp trace in
      (* replay raises on any invariant violation *)
      let wb = Wb.replay inst ~epsilon ~trace ~schedule in
      let log2 x = log x /. log 2.0 in
      let k = float_of_int inst.Instance.k in
      let bound =
        (4.0 /. epsilon *. log2 k *. float_of_int (Cost.total opt))
        +. (2.0 *. float_of_int n *. log2 k)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d: W cost within Lemma 3.4 bound" wname n)
        true
        (float_of_int (Wb.total_cost wb) <= bound);
      (* (IH) makes the hitting cost at most OPT's communication cost *)
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d: hit <= OPT comm" wname n)
        true
        (Wb.hit_cost wb <= opt.Cost.comm))
    wb_cases

let test_wb_segments_partition () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let wb = Wb.create inst ~epsilon:0.25 in
  let total = List.fold_left ( + ) 0 (Wb.segment_sizes wb) in
  Alcotest.(check int) "initial segments cover the ring" 8 total;
  Alcotest.(check (list int)) "initial cuts = OPT cuts" [ 3; 7 ] (Wb.cut_edges wb)

let test_wb_potential_nonneg () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let rng = Rng.create 4 in
  let trace = Array.init 200 (fun _ -> Rng.int rng 8) in
  let dp = Rbgp_offline.Dynamic_opt.enumerate_states inst () in
  let schedule, _ = Rbgp_offline.Dynamic_opt.solve_schedule dp trace in
  let wb = Wb.create inst ~epsilon:0.25 in
  Array.iteri
    (fun i e ->
      ignore (Wb.step wb ~opt_assignment:schedule.(i) ~request:e);
      Alcotest.(check bool) "potential non-negative" true (Wb.potential wb >= -1e-9))
    trace

let test_lemma_3_6_chain () =
  (* Lemma 3.6 implies E_R[OPT_R] <= 6 * OPT_W <= 6 * (cost of our
     constructed well-behaved strategy); check the chain on exact-OPT
     replays.  The constructed W is only an upper bound on OPT_W, so this
     is a necessary consequence of the lemma, not its exact statement. *)
  let n = 6 and ell = 3 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create 21 in
  let trace = Array.init 300 (fun _ -> Rng.int rng n) in
  let dp = Rbgp_offline.Dynamic_opt.enumerate_states inst () in
  let schedule, _ = Rbgp_offline.Dynamic_opt.solve_schedule dp trace in
  let wb = Wb.replay inst ~epsilon:0.25 ~trace ~schedule in
  let epsilon = 0.25 in
  let opt_rs =
    List.init n (fun shift ->
        Rbgp_offline.Lower_bound.interval_opt inst trace ~shift ~epsilon)
  in
  let mean_opt_r =
    List.fold_left ( +. ) 0.0 opt_rs /. float_of_int (List.length opt_rs)
  in
  (* allow the additive slack of W's initialization (its segments start as
     OPT's, worth at most n) *)
  Alcotest.(check bool)
    (Printf.sprintf "E_R[OPT_R]=%.1f <= 6 W=%d + n" mean_opt_r
       (Wb.total_cost wb))
    true
    (mean_opt_r <= (6.0 *. float_of_int (Wb.total_cost wb)) +. float_of_int n)

let test_wb_epsilon_validation () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  Alcotest.check_raises "epsilon too large"
    (Invalid_argument "Well_behaved.create: epsilon must be in (0, 1/4]")
    (fun () -> ignore (Wb.create inst ~epsilon:0.5))

let () =
  Alcotest.run "rbgp_core_dynamic"
    [
      ( "intervals",
        [
          test_locate_consistency;
          test_edges_partition;
          test_widths;
          test_slices_partition;
          test_slices_bounded;
          test_slices_one_per_server;
          Alcotest.test_case "validation" `Quick test_intervals_validation;
        ] );
      ( "dynamic-alg",
        [
          Alcotest.test_case "load bound (Lemma 3.1)" `Quick test_dyn_load_bound;
          Alcotest.test_case "cuts inside intervals" `Quick
            test_dyn_cuts_inside_intervals;
          Alcotest.test_case "Observation 3.2 dominance" `Quick
            test_dyn_observation_32;
          Alcotest.test_case "assignment matches cuts" `Quick
            test_dyn_assignment_matches_cuts;
          Alcotest.test_case "deterministic by seed" `Quick
            test_dyn_deterministic_given_seed;
          Alcotest.test_case "shift range" `Quick test_dyn_shift_range;
          Alcotest.test_case "all MTS solvers" `Quick test_dyn_solver_variants;
          Alcotest.test_case "epsilon sweep" `Quick test_dyn_epsilon_too_small;
        ] );
      ( "well-behaved",
        [
          Alcotest.test_case "replay vs exact OPT (Lemma 3.4)" `Quick
            test_wb_replay;
          Alcotest.test_case "initial segments" `Quick test_wb_segments_partition;
          Alcotest.test_case "potential non-negative" `Quick
            test_wb_potential_nonneg;
          Alcotest.test_case "Lemma 3.6 chain" `Quick test_lemma_3_6_chain;
          Alcotest.test_case "epsilon validation" `Quick test_wb_epsilon_validation;
        ] );
    ]
