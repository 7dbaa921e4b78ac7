(* Tests for the ring model: cyclic segment arithmetic (property-tested —
   the whole Section-4 machinery leans on it), instances, assignments,
   cost accounting, traces, and the simulator's billing rules. *)

module Instance = Rbgp_ring.Instance
module Segment = Rbgp_ring.Segment
module Assignment = Rbgp_ring.Assignment
module Cost = Rbgp_ring.Cost
module Trace = Rbgp_ring.Trace
module Simulator = Rbgp_ring.Simulator
module Online = Rbgp_ring.Online

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seg_gen =
  QCheck2.Gen.(
    int_range 2 40 >>= fun n ->
    int_range 0 (n - 1) >>= fun start ->
    int_range 1 n >|= fun len -> Segment.make ~n ~start ~len)

let seg_pair_gen =
  QCheck2.Gen.(
    int_range 2 40 >>= fun n ->
    let one =
      int_range 0 (n - 1) >>= fun start ->
      int_range 1 n >|= fun len -> Segment.make ~n ~start ~len
    in
    pair one one)

(* --- Segment --------------------------------------------------------- *)

let test_seg_mem_to_list =
  qtest "segment: mem agrees with to_list" seg_gen (fun s ->
      let l = Segment.to_list s in
      List.length l = Segment.length s
      && List.for_all (Segment.mem s) l
      &&
      let inside = List.sort_uniq compare l in
      List.length inside = Segment.length s)

let test_seg_endpoints =
  qtest "segment: first/last consistent with of_endpoints" seg_gen (fun s ->
      let n = s.Segment.n in
      let s' = Segment.of_endpoints ~n (Segment.first s) (Segment.last s) in
      Segment.equal s s')

let test_seg_subset =
  qtest "segment: subset agrees with membership" seg_pair_gen (fun (a, b) ->
      Segment.subset a b = List.for_all (Segment.mem b) (Segment.to_list a))

let test_seg_inter =
  qtest "segment: inter_size agrees with explicit intersection" seg_pair_gen
    (fun (a, b) ->
      let explicit =
        List.length (List.filter (Segment.mem b) (Segment.to_list a))
      in
      Segment.inter_size a b = explicit
      && Segment.inter_size a b = Segment.inter_size b a)

let test_seg_distances =
  qtest "segment: cw and ring distances"
    QCheck2.Gen.(
      int_range 2 60 >>= fun n ->
      pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) >|= fun (a, b) ->
      (n, a, b))
    (fun (n, a, b) ->
      let cw = Segment.cw_distance ~n a b in
      let ccw = Segment.cw_distance ~n b a in
      let rd = Segment.ring_distance ~n a b in
      cw >= 0 && cw < n
      && (a = b || cw + ccw = n)
      && rd = min cw ccw
      && rd <= n / 2)

let test_seg_edges_inside =
  qtest "segment: edges_inside are the internal edges" seg_gen (fun s ->
      let edges = Segment.edges_inside s in
      let expected =
        if Segment.length s >= s.Segment.n then s.Segment.n
        else Segment.length s - 1
      in
      List.length edges = expected
      && List.for_all
           (fun e -> Segment.mem s e && Segment.mem s ((e + 1) mod s.Segment.n))
           edges)

let test_seg_iter_fold () =
  let s = Segment.make ~n:10 ~start:8 ~len:4 in
  Alcotest.(check (list int)) "wrap-around order" [ 8; 9; 0; 1 ] (Segment.to_list s);
  Alcotest.(check int) "fold sums" 18 (Segment.fold ( + ) 0 s);
  Alcotest.(check int) "last" 1 (Segment.last s)

let test_seg_invalid () =
  Alcotest.check_raises "zero len"
    (Invalid_argument "Segment.make: len out of (0, n]") (fun () ->
      ignore (Segment.make ~n:5 ~start:0 ~len:0));
  Alcotest.check_raises "len > n"
    (Invalid_argument "Segment.make: len out of (0, n]") (fun () ->
      ignore (Segment.make ~n:5 ~start:0 ~len:6))

(* --- Instance -------------------------------------------------------- *)

let test_instance_blocks () =
  let inst = Instance.blocks ~n:12 ~ell:3 in
  Alcotest.(check int) "k" 4 inst.Instance.k;
  Alcotest.(check (list int)) "initial cuts" [ 3; 7; 11 ]
    (Instance.initial_cut_edges inst)

let test_instance_validation () =
  Alcotest.check_raises "capacity exceeded"
    (Invalid_argument "Instance.make: n exceeds total capacity") (fun () ->
      ignore (Instance.make ~n:10 ~ell:2 ~k:4 ()));
  Alcotest.check_raises "overloaded initial"
    (Invalid_argument "Instance.make: initial load exceeds capacity")
    (fun () ->
      ignore (Instance.make ~n:4 ~ell:2 ~k:2 ~initial:[| 0; 0; 0; 1 |] ()));
  Alcotest.check_raises "bad server id"
    (Invalid_argument "Instance.make: initial server id out of range")
    (fun () -> ignore (Instance.make ~n:2 ~ell:2 ~k:1 ~initial:[| 0; 5 |] ()))

let test_instance_custom_initial () =
  let inst =
    Instance.make ~n:6 ~ell:3 ~k:2 ~initial:[| 0; 1; 0; 1; 2; 2 |] ()
  in
  Alcotest.(check (list int)) "cuts of alternating layout" [ 0; 1; 2; 3; 5 ]
    (Instance.initial_cut_edges inst)

(* --- Assignment ------------------------------------------------------ *)

let test_assignment_loads () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Assignment.create inst in
  Alcotest.(check (array int)) "initial loads" [| 4; 4 |] (Assignment.loads a);
  Assignment.set a 0 1;
  Alcotest.(check (array int)) "after move" [| 3; 5 |] (Assignment.loads a);
  Alcotest.(check int) "max load" 5 (Assignment.max_load a);
  Alcotest.(check bool) "capacity 1.0 violated" false
    (Assignment.check_capacity a ~augmentation:1.0);
  Alcotest.(check bool) "capacity 1.25 fine" true
    (Assignment.check_capacity a ~augmentation:1.25)

let test_assignment_cuts () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Assignment.create inst in
  Alcotest.(check (list int)) "block cuts" [ 3; 7 ] (Assignment.cut_edges a);
  Alcotest.(check bool) "edge 3 cut" true (Assignment.cuts_edge a 3);
  Alcotest.(check bool) "edge 0 not cut" false (Assignment.cuts_edge a 0)

let test_assignment_hamming_diff () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Assignment.create inst in
  let b = Assignment.copy a in
  Assignment.set b 0 1;
  Assignment.set b 5 0;
  Alcotest.(check int) "hamming" 2 (Assignment.hamming a b);
  let scratch = Assignment.copy a in
  Alcotest.(check int) "diff_into distance" 2 (Assignment.diff_into b scratch);
  Alcotest.(check int) "scratch synced" 0 (Assignment.hamming b scratch);
  Alcotest.(check (array int)) "loads synced" (Assignment.loads b)
    (Assignment.loads scratch)

(* --- Cost ------------------------------------------------------------ *)

let test_cost () =
  let a = { Cost.comm = 3; mig = 4 } in
  let b = { Cost.comm = 1; mig = 1 } in
  Alcotest.(check int) "total" 7 (Cost.total a);
  let c = Cost.plus a b in
  Alcotest.(check int) "plus" 9 (Cost.total c);
  Cost.add a b;
  Alcotest.(check int) "add mutates" 9 (Cost.total a);
  Alcotest.(check (float 1e-9)) "ratio" 4.5 (Cost.scale_ratio a b);
  Alcotest.(check (float 1e-9)) "0/0" 1.0
    (Cost.scale_ratio (Cost.zero ()) (Cost.zero ()))

(* --- Trace ----------------------------------------------------------- *)

let test_trace () =
  let t = Trace.fixed [| 1; 2; 3 |] in
  Alcotest.(check (option int)) "length" (Some 3) (Trace.length t);
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Assignment.create inst in
  Alcotest.(check int) "fixed next" 2 (Trace.next t 1 a);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Trace.next: step out of bounds") (fun () ->
      ignore (Trace.next t 3 a));
  Trace.validate ~n:8 t ~steps:3;
  Alcotest.check_raises "too short"
    (Invalid_argument "Trace.validate: fixed trace shorter than steps")
    (fun () -> Trace.validate ~n:8 t ~steps:4);
  let ad = Trace.adaptive (fun step _ -> step * 2) in
  Alcotest.(check (option int)) "adaptive length" None (Trace.length ad);
  Alcotest.(check int) "adaptive next" 4 (Trace.next ad 2 a)

(* --- Simulator ------------------------------------------------------- *)

(* a scripted algorithm: migrates process [p] to server [s] at step [t] *)
let scripted ?(augmentation = 2.0) inst moves =
  let a = Assignment.create inst in
  let step = ref 0 in
  Online.make ~name:"scripted" ~augmentation
    ~assignment:(fun () -> a)
    ~serve:(fun _ ->
      List.iter (fun (t, p, s) -> if t = !step then Assignment.set a p s) moves;
      incr step)
    ~save:ignore ~load:ignore

let test_simulator_accounting () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  (* requests: edge 3 (cut: comm 1), edge 3 again after process 3 moved to
     server 1 (no longer cut: comm 0), edge 0 (never cut: 0) *)
  let alg = scripted inst [ (0, 3, 1) ] in
  let r = Simulator.run inst alg (Trace.fixed [| 3; 3; 0 |]) ~steps:3 in
  Alcotest.(check int) "comm" 1 r.Simulator.cost.Cost.comm;
  Alcotest.(check int) "mig" 1 r.Simulator.cost.Cost.mig;
  Alcotest.(check int) "max load" 5 r.Simulator.max_load;
  Alcotest.(check int) "violations" 0 r.Simulator.capacity_violations

let test_simulator_mid_step_transients () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  (* within one serve, at capacity 4 = 1.0 * k: process 0 visits server 1
     and comes back, then process 1 lands on the full server 1 before
     process 4 leaves it.  Both servers pass through load 5, but the step
     ends at loads 4/4 with processes 1 and 4 swapped. *)
  let moves = [ (0, 0, 1); (0, 0, 0); (0, 1, 1); (0, 4, 0) ] in
  let alg = scripted ~augmentation:1.0 inst moves in
  let r = Simulator.run inst alg (Trace.fixed [| 0 |]) ~steps:1 in
  Alcotest.(check int) "mig is the Hamming distance" 2 r.Simulator.cost.Cost.mig;
  Alcotest.(check int) "max load ignores transients" 4 r.Simulator.max_load;
  Alcotest.(check int) "no violation from transients" 0
    r.Simulator.capacity_violations

let test_simulator_comm_before_migration () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  (* the algorithm collocates the endpoints during step 0, but the request
     arrives before the reaction, so step 0 still pays communication *)
  let alg = scripted inst [ (0, 3, 1) ] in
  let r = Simulator.run inst alg (Trace.fixed [| 3 |]) ~steps:1 in
  Alcotest.(check int) "comm billed at old assignment" 1
    r.Simulator.cost.Cost.comm

let test_simulator_capacity_enforcement () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  (* move three processes onto server 1: load 7 > 1.5 * 4 *)
  let moves = [ (0, 0, 1); (0, 1, 1); (0, 2, 1) ] in
  let alg = scripted ~augmentation:1.5 inst moves in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Simulator.run inst alg (Trace.fixed [| 0 |]) ~steps:1);
       false
     with Failure _ -> true);
  let alg = scripted ~augmentation:1.5 inst moves in
  let r =
    Simulator.run ~strict:false inst alg (Trace.fixed [| 0; 0 |]) ~steps:2
  in
  Alcotest.(check int) "violations counted" 2 r.Simulator.capacity_violations

let test_simulator_per_step () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let alg = scripted inst [ (1, 3, 1) ] in
  let r =
    Simulator.run ~record_steps:true inst alg (Trace.fixed [| 3; 3; 3 |])
      ~steps:3
  in
  match r.Simulator.per_step with
  | None -> Alcotest.fail "expected series"
  | Some s ->
      Alcotest.(check (array (pair int int)))
        "cumulative series"
        [| (1, 0); (2, 1); (2, 1) |]
        s

let test_replay_cost () =
  let inst = Instance.blocks ~n:4 ~ell:2 in
  (* initial 0011; schedule: step 0 stays, step 1 swaps to 0101 *)
  let trace = [| 1; 1 |] in
  let assignments = [| [| 0; 0; 1; 1 |]; [| 0; 1; 0; 1 |] |] in
  let c = Simulator.replay_cost inst trace ~assignments in
  (* step 0: no migration; edge 1 connects p1 (server 0) and p2 (server 1):
     comm 1.  step 1: p1 and p2 migrate: 2; edge 1 still crosses: comm 1. *)
  Alcotest.(check int) "comm" 2 c.Cost.comm;
  Alcotest.(check int) "mig" 2 c.Cost.mig

let test_simulator_matches_replay () =
  (* driving a scripted algorithm and replaying the assignments each request
     actually saw must agree on total cost, once the final reaction's
     migrations (invisible to the replay) are added back *)
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let moves = [ (1, 3, 1); (3, 3, 0); (4, 7, 1) ] in
  let trace = [| 3; 3; 7; 3; 7; 0 |] in
  let alg = scripted inst moves in
  let history = ref [] in
  let r =
    Simulator.run
      ~on_step:(fun _ _ ->
        history := Assignment.to_array (alg.Online.assignment ()) :: !history)
      inst alg (Trace.fixed trace) ~steps:(Array.length trace)
  in
  let after = Array.of_list (List.rev !history) in
  let seen =
    Array.mapi
      (fun t _ -> if t = 0 then inst.Instance.initial else after.(t - 1))
      after
  in
  let replay = Simulator.replay_cost inst trace ~assignments:seen in
  let tail_mig =
    let last = Array.length after - 1 in
    let d = ref 0 in
    Array.iteri (fun p s -> if s <> after.(last).(p) then incr d) seen.(last);
    !d
  in
  Alcotest.(check int) "totals agree"
    (Cost.total r.Simulator.cost)
    (Cost.total replay + tail_mig)

(* --- Render ---------------------------------------------------------- *)

let test_render () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Assignment.create inst in
  let s = Rbgp_ring.Render.assignment ~width:8 a in
  Alcotest.(check string) "one row with cut markers"
    "     0  0 0 0 0|1 1 1 1|\n" s;
  let l = Rbgp_ring.Render.loads a in
  Alcotest.(check string) "load bars" "0:#### 1:####" l

let test_render_wrap () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let a = Assignment.create inst in
  let s = Rbgp_ring.Render.assignment ~width:4 a in
  (* two rows; the cut at edge 3 ends row one, the wrap cut at 7 row two *)
  Alcotest.(check string) "two rows"
    "     0  0 0 0 0|\n     4  1 1 1 1|\n" s

let () =
  Alcotest.run "rbgp_ring"
    [
      ( "segment",
        [
          test_seg_mem_to_list;
          test_seg_endpoints;
          test_seg_subset;
          test_seg_inter;
          test_seg_distances;
          test_seg_edges_inside;
          Alcotest.test_case "iter/fold/wrap" `Quick test_seg_iter_fold;
          Alcotest.test_case "invalid" `Quick test_seg_invalid;
        ] );
      ( "instance",
        [
          Alcotest.test_case "blocks" `Quick test_instance_blocks;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "custom initial" `Quick test_instance_custom_initial;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "loads" `Quick test_assignment_loads;
          Alcotest.test_case "cuts" `Quick test_assignment_cuts;
          Alcotest.test_case "hamming/diff" `Quick test_assignment_hamming_diff;
        ] );
      ("cost", [ Alcotest.test_case "arithmetic" `Quick test_cost ]);
      ("trace", [ Alcotest.test_case "fixed/adaptive" `Quick test_trace ]);
      ( "simulator",
        [
          Alcotest.test_case "accounting" `Quick test_simulator_accounting;
          Alcotest.test_case "mid-step transients" `Quick
            test_simulator_mid_step_transients;
          Alcotest.test_case "comm before migration" `Quick
            test_simulator_comm_before_migration;
          Alcotest.test_case "capacity enforcement" `Quick
            test_simulator_capacity_enforcement;
          Alcotest.test_case "per-step series" `Quick test_simulator_per_step;
          Alcotest.test_case "replay cost" `Quick test_replay_cost;
          Alcotest.test_case "simulator matches replay" `Quick
            test_simulator_matches_replay;
        ] );
      ( "render",
        [
          Alcotest.test_case "basic" `Quick test_render;
          Alcotest.test_case "wrap" `Quick test_render_wrap;
        ] );
    ]
