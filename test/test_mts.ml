(* Tests for the metrical-task-system substrate: metrics, the solver
   interface's cost accounting, the exact offline DP (cross-checked against
   brute force), the deterministic work-function algorithm (competitive
   bound + work-function invariants), the randomized solvers, and the
   smooth-min solver's cached-weight step against the dense reference. *)

module Metric = Rbgp_mts.Metric
module Mts = Rbgp_mts.Mts
module Offline = Rbgp_mts.Offline
module Wfa = Rbgp_mts.Work_function
module Rng = Rbgp_util.Rng
module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin
module Binc = Rbgp_util.Binc

(* the unit cost vector charging 1 at state [e]: the dense task the ring
   reduction's requests stand for *)
let indicator e ~n =
  let v = Array.make n 0.0 in
  v.(e) <- 1.0;
  v

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Metric ----------------------------------------------------------- *)

let test_metric () =
  let l = Metric.Line 5 and u = Metric.Uniform 5 in
  Alcotest.(check int) "line distance" 3 (Metric.distance l 1 4);
  Alcotest.(check int) "line diameter" 4 (Metric.diameter l);
  Alcotest.(check int) "uniform distance" 1 (Metric.distance u 0 4);
  Alcotest.(check int) "uniform same" 0 (Metric.distance u 2 2);
  Alcotest.(check int) "uniform diameter" 1 (Metric.diameter u);
  Alcotest.check_raises "state range"
    (Invalid_argument "Metric.distance: state out of range") (fun () ->
      ignore (Metric.distance l 0 5))

(* --- Mts wrapper ------------------------------------------------------ *)

let test_mts_accounting () =
  (* scripted solver: always moves to the requested state *)
  let metric = Metric.Line 4 in
  let t = Mts.make ~metric ~start:0 ~next:(fun e _ -> e)
      ~save:ignore ~load:ignore
  in
  ignore (Mts.serve t 3);
  (* moved 0 -> 3 (distance 3) and pays the task at the new state (1) *)
  Alcotest.(check (float 1e-9)) "move" 3.0 (Mts.move_cost t);
  Alcotest.(check (float 1e-9)) "hit" 1.0 (Mts.hit_cost t);
  ignore (Mts.serve t 0);
  Alcotest.(check int) "state follows" 0 (Mts.state t);
  Alcotest.(check int) "steps" 2 (Mts.steps t);
  (* a solver that dodges the task pays no hit *)
  let dodge =
    Mts.make ~metric ~start:0 ~next:(fun e _ -> (e + 1) mod 4)
      ~save:ignore ~load:ignore
  in
  ignore (Mts.serve dodge 2);
  Alcotest.(check (float 1e-9)) "dodged hit" 0.0 (Mts.hit_cost dodge);
  Alcotest.(check (float 1e-9)) "dodge move" 3.0 (Mts.move_cost dodge)

let test_mts_validation () =
  let metric = Metric.Line 3 in
  let t =
    Mts.make ~metric ~start:1 ~next:(fun _ s -> s) ~save:ignore
      ~load:ignore
  in
  List.iter
    (fun e ->
      Alcotest.check_raises
        (Printf.sprintf "task state %d" e)
        (Invalid_argument "Mts.serve: task state out of range") (fun () ->
          ignore (Mts.serve t e)))
    [ -1; 3; max_int; min_int ];
  Alcotest.(check int) "rejected tasks are not served" 0 (Mts.steps t);
  let rogue =
    Mts.make ~metric ~start:0 ~next:(fun _ _ -> 3)
      ~save:ignore ~load:ignore
  in
  Alcotest.check_raises "solver leaving the metric"
    (Invalid_argument "Metric: state out of range") (fun () ->
      ignore (Mts.serve rogue 0))

(* --- Offline DP vs brute force ---------------------------------------- *)

(* The offline optimum from a first row [init], relaxed over all pairs:
   opt_t(x) = min over y of (opt_(t-1)(y) + d(y, x)) + task_t(x).  With
   init = d(start, .) it is the fixed-start optimum the online solvers are
   checked against; with init = 0 it is Offline's free-start DP. *)
let opt_from metric init tasks =
  let s = Metric.size metric in
  let opt = Array.copy init in
  Array.iter
    (fun task ->
      let prev = Array.copy opt in
      for x = 0 to s - 1 do
        let best = ref infinity in
        for y = 0 to s - 1 do
          best :=
            Float.min !best
              (prev.(y) +. float_of_int (Metric.distance metric y x))
        done;
        opt.(x) <- !best +. task.(x)
      done)
    tasks;
  Array.fold_left Float.min infinity opt

let opt_cost metric ~start tasks =
  let s = Metric.size metric in
  opt_from metric
    (Array.init s (fun x -> float_of_int (Metric.distance metric start x)))
    tasks

let opt_cost_indicators metric ~start es =
  let s = Metric.size metric in
  opt_cost metric ~start (Array.map (fun e -> indicator e ~n:s) es)

let brute_force_opt metric ~start tasks =
  let s = Metric.size metric in
  let steps = Array.length tasks in
  let best = ref infinity in
  let rec go t prev acc =
    if acc >= !best then ()
    else if t = steps then best := acc
    else
      for x = 0 to s - 1 do
        go (t + 1) x
          (acc
          +. float_of_int (Metric.distance metric prev x)
          +. tasks.(t).(x))
      done
  in
  go 0 start 0.0;
  !best

let tiny_instance_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun s ->
    int_range 0 (s - 1) >>= fun start ->
    int_range 1 5 >>= fun steps ->
    let task = array_size (return s) (float_bound_inclusive 3.0) in
    array_size (return steps) task >|= fun tasks -> (s, start, tasks))

let test_offline_vs_brute_line =
  qtest ~count:200 "offline DP = brute force (line)" tiny_instance_gen
    (fun (s, start, tasks) ->
      let m = Metric.Line s in
      Float.abs (opt_cost m ~start tasks -. brute_force_opt m ~start tasks)
      < 1e-6)

let test_offline_vs_brute_uniform =
  qtest ~count:200 "offline DP = brute force (uniform)" tiny_instance_gen
    (fun (s, start, tasks) ->
      let m = Metric.Uniform s in
      Float.abs (opt_cost m ~start tasks -. brute_force_opt m ~start tasks)
      < 1e-6)

let indicator_seq_gen =
  QCheck2.Gen.(
    int_range 2 8 >>= fun s ->
    int_range 0 (s - 1) >>= fun start ->
    list_size (int_range 0 30) (int_range 0 (s - 1)) >|= fun es ->
    (s, start, Array.of_list es))

(* Offline's in-place transforms against the relaxation over all pairs *)
let test_offline_indicators =
  qtest ~count:200 "indicator specialization matches generic DP"
    indicator_seq_gen (fun (s, _, es) ->
      let tasks = Array.map (fun e -> indicator e ~n:s) es in
      List.for_all
        (fun m ->
          Float.abs
            (Offline.opt_cost_indicators_free m es
            -. opt_from m (Array.make s 0.0) tasks)
          < 1e-6)
        [ Metric.Line s; Metric.Uniform s ])

let test_offline_free_start =
  qtest ~count:200 "free start <= fixed start; static >= dynamic"
    indicator_seq_gen (fun (s, start, es) ->
      let m = Metric.Line s in
      let free = Offline.opt_cost_indicators_free m es in
      let fixed = opt_cost_indicators m ~start es in
      let static = Rbgp_hitting.Static_opt.static ~k:s ~start es in
      free <= fixed +. 1e-9 && fixed <= static +. 1e-9)

(* --- Work function algorithm ------------------------------------------ *)

let test_wfa_competitive =
  (* WFA is (2s-1)-competitive; check cost <= (2s-1) OPT + (2s-1) * diam on
     random indicator instances (the additive term covers the start-up) *)
  qtest ~count:150 "wfa within the deterministic competitive bound"
    indicator_seq_gen (fun (s, start, es) ->
      let m = Metric.Line s in
      let t = Wfa.solver m ~start ~rng:(Rng.create 0) in
      Array.iter (fun e -> ignore (Mts.serve t e)) es;
      let opt = opt_cost_indicators m ~start es in
      let bound =
        (float_of_int ((2 * s) - 1) *. opt)
        +. float_of_int ((2 * s - 1) * Metric.diameter m)
      in
      Mts.total_cost t <= bound +. 1e-6)

let test_wfa_work_function_invariants =
  qtest ~count:150 "work function is 1-Lipschitz and lower-bounds cost"
    indicator_seq_gen (fun (s, start, es) ->
      let t, wf = Wfa.solver_introspect (Metric.Line s) ~start in
      Array.iter (fun e -> ignore (Mts.serve t e)) es;
      let w = wf () in
      let lipschitz = ref true in
      for i = 0 to s - 2 do
        if Float.abs (w.(i + 1) -. w.(i)) > 1.0 +. 1e-9 then lipschitz := false
      done;
      let wmin = Array.fold_left Float.min w.(0) w in
      let opt = opt_cost_indicators (Metric.Line s) ~start es in
      (* min of the work function IS the offline optimum *)
      !lipschitz && Float.abs (wmin -. opt) < 1e-6)

let test_wfa_stationary () =
  (* hammering one edge: WFA eventually settles elsewhere and stops paying *)
  let s = 9 in
  let m = Metric.Line s in
  let t = Wfa.solver m ~start:4 ~rng:(Rng.create 0) in
  for _ = 1 to 200 do
    ignore (Mts.serve t 4)
  done;
  Alcotest.(check bool) "moved away" true (Mts.state t <> 4);
  let before = Mts.total_cost t in
  for _ = 1 to 100 do
    ignore (Mts.serve t 4)
  done;
  Alcotest.(check (float 1e-9)) "no further cost" before (Mts.total_cost t)

(* --- randomized solvers ------------------------------------------------ *)

let run_solver solver m ~start es ~seed =
  let t = solver m ~start ~rng:(Rng.create seed) in
  Array.iter (fun e -> ignore (Mts.serve t e : int)) es;
  Mts.total_cost t

let test_smin_mw_distribution () =
  let m = Metric.Line 8 in
  let x = [| 9.0; 0.0; 9.0; 9.0; 9.0; 9.0; 9.0; 9.0 |] in
  let d = Rbgp_mts.Smin_mw.distribution m x in
  Alcotest.(check bool) "concentrates on cheap state" true
    (Rbgp_util.Dist.prob d 1 > 0.25)

let test_smin_mw_hammer () =
  (* cost of dodging a hammered state stays modest: O(c log s) *)
  let s = 32 in
  let m = Metric.Line s in
  let es = Array.make 2_000 (s / 2) in
  let cost = run_solver Rbgp_mts.Smin_mw.solver m ~start:(s / 2) es ~seed:5 in
  Alcotest.(check bool)
    (Printf.sprintf "hammer cost %.0f bounded" cost)
    true
    (cost <= 8.0 *. float_of_int s)

let test_hst_distribution () =
  let m = Metric.Line 16 in
  let x = Array.make 16 50.0 in
  x.(3) <- 0.0;
  let d = Rbgp_mts.Hst_mts.leaf_distribution m x in
  let arr = Rbgp_util.Dist.to_array d in
  let sum = Array.fold_left ( +. ) 0.0 arr in
  Alcotest.(check (float 1e-6)) "normalized" 1.0 sum;
  Alcotest.(check bool) "concentrates" true (arr.(3) > 0.5)

let test_hst_rejects_uniform () =
  Alcotest.check_raises "uniform rejected"
    (Invalid_argument "Hst_mts.solver: requires a line metric") (fun () ->
      ignore (Rbgp_mts.Hst_mts.solver (Metric.Uniform 4) ~start:0 ~rng:(Rng.create 0)))

let test_randomized_reasonable =
  (* all randomized solvers stay within a loose factor of OPT on random
     indicator sequences (sanity, not the theorem) *)
  qtest ~count:40 "randomized solvers within loose factor of OPT"
    QCheck2.Gen.(
      int_range 4 16 >>= fun s ->
      list_size (int_range 20 80) (int_range 0 (s - 1)) >|= fun es ->
      (s, Array.of_list es))
    (fun (s, es) ->
      let m = Metric.Line s in
      let start = s / 2 in
      let opt = opt_cost_indicators m ~start es in
      let loose cost = cost <= (20.0 *. opt) +. (30.0 *. float_of_int s) in
      loose (run_solver Rbgp_mts.Smin_mw.solver m ~start es ~seed:1)
      && loose (run_solver Rbgp_mts.Hst_mts.solver m ~start es ~seed:2)
      && loose (run_solver Rbgp_mts.Marking.solver m ~start es ~seed:3))

(* --- smooth-min MW: cached-weight step vs the dense reference --------- *)

(* The threshold below which Smin_mw's O(1) miss step stays without
   building a distribution (DESIGN.md, "The O(1) miss step"). *)
let stay_floor = 1.0 -. 0x1p-20

(* What the reference saw: misses whose stay uniform was at or above
   [stay_floor] (Smin_mw must take its dense fallback on those), and steps
   that began on a state of zero probability (the coupling's fresh-sample
   branch). *)
type seen = { mutable late_misses : int; mutable massless : int }

(* The dense (cost-vector) form of the smooth-min MW step, kept as the
   oracle for Smin_mw's cached-weight step: add the whole task vector to
   the cumulative costs x, recompute grad smin_c x from scratch (one exp
   per state), renormalise through Dist.of_grad_into and follow it
   through the maximal-stay coupling.  [x0] seeds the cumulative costs
   (default zero).  Returns the serve function, the hit and move cost
   accessors and what it saw, which it learns by peeking at each step's
   first uniform through a copy of the rng. *)
let reference_smin_mw ?x0 ~c ~s ~start rng =
  let x = match x0 with Some x0 -> Array.copy x0 | None -> Array.make s 0.0 in
  let grad = Array.make s 0.0 in
  let current_dist = ref (Dist.uniform s) in
  let next_dist = ref (Dist.uniform s) in
  Smin.grad_c_into ~c x grad;
  Dist.of_grad_into grad !current_dist;
  let state = ref start and hit = ref 0.0 and move = ref 0.0 in
  let seen = { late_misses = 0; massless = 0 } in
  let serve e =
    if e <> !state && Rng.float (Rng.copy rng) >= stay_floor then
      seen.late_misses <- seen.late_misses + 1;
    if Dist.prob !current_dist !state <= 0.0 then
      seen.massless <- seen.massless + 1;
    let cost = indicator e ~n:s in
    for i = 0 to s - 1 do
      x.(i) <- x.(i) +. cost.(i)
    done;
    Smin.grad_c_into ~c x grad;
    let new_dist = !next_dist in
    Dist.of_grad_into grad new_dist;
    let s' =
      Dist.resample_coupled rng ~current:!state ~old_dist:!current_dist
        ~new_dist
    in
    next_dist := !current_dist;
    current_dist := new_dist;
    move := !move +. float_of_int (abs (s' - !state));
    hit := !hit +. cost.(s');
    state := s';
    s'
  in
  (serve, (fun () -> !hit), (fun () -> !move), seen)

(* A stretch of the task sequence: fixed tasks, or [Chase len]: [len]
   tasks each on the solver's current state, an adaptive adversary under
   which every step is a hit and so a dense step. *)
type segment = Tasks of int array | Chase of int

(* Task sequences built from segments: long hammering of one state (the
   hammered state leaves the minimum and stays above it), uniform random
   tasks, sweeps over every state, which lift the whole layer at the
   minimum and so force the recompute when the minimum moves, and chases.
   A chase between random tasks leaves the carried distribution stale
   after every run of O(1) steps, so the next dense step must rebuild it.
   Small-scale cases (c in [1, 2]) hammer for at least 800 c tasks, so
   the hammered state's weight exp (-x/c) passes through the subnormals
   to 0. *)
let smin_case_gen =
  QCheck2.Gen.(
    oneof [ oneofl [ 1; 2; 186 ]; int_range 3 24 ] >>= fun s ->
    int_range 0 (s - 1) >>= fun start ->
    oneof
      [
        (opt (oneof [ return 1.0; float_range 1.0 40.0 ]) >|= fun c -> (c, 1));
        ( float_range 1.0 2.0 >|= fun c ->
          (Some c, int_of_float (Float.ceil (800.0 *. c))) );
      ]
    >>= fun (c, hammer) ->
    int_range 0 1_000_000 >>= fun seed ->
    let segment =
      oneof
        [
          (pair (int_range 0 (s - 1)) (int_range hammer (hammer + 599))
           >|= fun (e, len) -> Tasks (Array.make len e));
          (list_size (int_range 1 60) (int_range 0 (s - 1)) >|= fun es ->
           Tasks (Array.of_list es));
          (bool >|= fun up ->
           Tasks (Array.init s (fun i -> if up then i else s - 1 - i)));
          (int_range 1 200 >|= fun len -> Chase len);
        ]
    in
    list_size (int_range 1 8) segment >|= fun segs ->
    (s, start, c, seed, segs))

let print_smin_case (s, start, c, seed, segs) =
  let tasks, chased =
    List.fold_left
      (fun (t, ch) -> function
        | Tasks es -> (t + Array.length es, ch)
        | Chase len -> (t, ch + len))
      (0, 0) segs
  in
  Printf.sprintf "s=%d start=%d c=%s seed=%d tasks=%d chased=%d" s start
    (match c with None -> "default" | Some c -> Printf.sprintf "%h" c)
    seed tasks chased

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Serves [task ()] to the solver and the reference in lockstep; false as
   soon as they part. *)
let lockstep t serve task steps =
  let rec go k =
    if k = 0 then true
    else
      let e = task () in
      Mts.serve t e = serve e && go (k - 1)
  in
  go steps

let test_smin_mw_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~print:print_smin_case
       ~name:"smin-mw cached step == dense reference (bit-equal)"
       smin_case_gen (fun (s, start, c, seed, segs) ->
         let m = Metric.Line s in
         let solver, c_eff =
           match c with
           | None ->
               (Rbgp_mts.Smin_mw.solver, Float.max 1.0 (float_of_int (s - 1)))
           | Some c -> (Rbgp_mts.Smin_mw.solver_with_scale ~c, c)
         in
         let t = solver m ~start ~rng:(Rng.create seed) in
         let serve, hit, move, _ =
           reference_smin_mw ~c:c_eff ~s ~start (Rng.create seed)
         in
         List.for_all
           (function
             | Tasks es -> Array.for_all (fun e -> Mts.serve t e = serve e) es
             | Chase len -> lockstep t serve (fun () -> Mts.state t) len)
           segs
         && same_bits (Mts.hit_cost t) (hit ())
         && same_bits (Mts.move_cost t) (move ())))

(* Below the weight floor.  The coupling leaves a state long before the
   state's weight exp (-(x_i - m)/c) gets near Smin_mw's floor 2^-960, so
   these states are entered by restoring a crafted snapshot: three states,
   c = 1, costs x = (0, 0, far), the solver on state 2.  Its weight is
   normal but below the floor (far = 700), subnormal (720) or 0 (2000:
   the state has no mass).  The first task, a miss on state 0, keeps the
   minimum (state 1 still sits there) but fails the floor guard and takes
   the dense step; at 2000 that is the coupling's fresh-sample branch. *)
let test_smin_mw_below_floor () =
  List.iter
    (fun far ->
      let x0 = [| 0.0; 0.0; far |] and seed = 17 in
      let snap = Buffer.create 64 in
      (* Mts.snapshot's layout: state, hit, move, steps, then the solver's
         counts and rng words *)
      List.iter (Binc.add_varint snap) [ 2; 0; 0; 0 ];
      Binc.add_counts snap x0;
      Rng.save snap (Rng.create seed);
      let t =
        Rbgp_mts.Smin_mw.solver_with_scale ~c:1.0 (Metric.Line 3) ~start:0
          ~rng:(Rng.create 0)
      in
      Mts.restore (Binc.reader (Buffer.contents snap)) t;
      let serve, hit, move, seen =
        reference_smin_mw ~x0 ~c:1.0 ~s:3 ~start:2 (Rng.create seed)
      in
      let tasks = Rng.create (int_of_float far) in
      let name = Printf.sprintf "far=%g" far in
      Alcotest.(check bool) (name ^ ": below the floor") true
        (exp (-.far) < 0x1p-960);
      Alcotest.(check bool) (name ^ ": first miss") true (lockstep t serve (fun () -> 0) 1);
      Alcotest.(check bool)
        (name ^ ": bit-equal after it") true
        (lockstep t serve (fun () -> Rng.int tasks 3) 300
        && lockstep t serve (fun () -> Mts.state t) 50
        && same_bits (Mts.hit_cost t) (hit ())
        && same_bits (Mts.move_cost t) (move ()));
      if far >= 2000.0 then
        Alcotest.(check bool) (name ^ ": current state had no mass") true
          (seen.massless >= 1))
    [ 700.0; 720.0; 2000.0 ]

(* The u >= L fallback, deterministically: the interval solvers of the
   Section-3 reduction at n=4096, ell=32 (lines of 186 and 187 states,
   the default scale), seeded 7919 and fed the rotating trace of seed
   7919, each checked step by step against its own dense reference.  A
   miss draws a stay uniform at or above L about once in 2^20 misses;
   in this stream the first such miss is request 127,204. *)
let test_smin_mw_late_miss () =
  let n = 4096 and ell = 32 and steps = 130_000 in
  let parted = ref 0 and seens = ref [] in
  let checked : Mts.factory =
   fun metric ~start ~rng ->
    let s = Metric.size metric in
    let serve, _, _, seen =
      reference_smin_mw
        ~c:(Float.max 1.0 (float_of_int (s - 1)))
        ~s ~start (Rng.copy rng)
    in
    seens := seen :: !seens;
    let t = Rbgp_mts.Smin_mw.solver metric ~start ~rng in
    Mts.make ~metric ~start ~save:ignore ~load:ignore
      ~next:(fun e _ ->
        let got = Mts.serve t e in
        if serve e <> got then incr parted;
        got)
  in
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let alg =
    Rbgp_core.Dynamic_alg.create ~mts:checked ~epsilon:0.5 inst (Rng.create 7919)
  in
  (match Rbgp_workloads.Workloads.rotating ~n ~steps (Rng.create 7919) with
  | Rbgp_ring.Trace.Fixed trace -> Array.iter (Rbgp_core.Dynamic_alg.serve alg) trace
  | Rbgp_ring.Trace.Adaptive _ -> Alcotest.fail "rotating trace is adaptive");
  let late = List.fold_left (fun acc seen -> acc + seen.late_misses) 0 !seens in
  Alcotest.(check int) "steps where a solver left its reference" 0 !parted;
  Alcotest.(check bool)
    (Printf.sprintf "misses with u >= L seen (%d)" late)
    true (late >= 1)

let test_marking_uniform () =
  (* marking on the uniform metric: competitive on repeated hammering *)
  let s = 8 in
  let m = Metric.Uniform s in
  let es = Array.init 4_000 (fun i -> i mod 2) in
  let cost = run_solver Rbgp_mts.Marking.solver m ~start:0 es ~seed:7 in
  let opt = opt_cost_indicators m ~start:0 es in
  Alcotest.(check bool)
    (Printf.sprintf "marking %.0f vs opt %.0f" cost opt)
    true
    (cost <= 10.0 *. (opt +. 1.0))

(* Every solver's snapshot is its whole state: a fresh solver restored
   from it makes the same moves and rng draws as the original from then
   on, and re-snapshots to the same bytes. *)
let qcheck_solver_snapshot =
  let solvers =
    [| ("smin-mw", Rbgp_mts.Smin_mw.solver); ("hst-mw", Rbgp_mts.Hst_mts.solver);
       ("wfa", Wfa.solver); ("marking", Rbgp_mts.Marking.solver) |]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"qcheck: snapshot/restore continues every solver exactly"
       QCheck2.Gen.(
         tup4 (int_bound (Array.length solvers - 1)) (int_range 1 12)
           (int_bound 10_000) (int_range 0 200))
       (fun (which, s, seed, before) ->
         let _, factory = solvers.(which) in
         let metric = Metric.Line s in
         let rng = Rng.create seed in
         let tasks = Array.init (before + 200) (fun _ -> Rng.int rng s) in
         let build () = factory metric ~start:0 ~rng:(Rng.create (seed + 1)) in
         let a = build () in
         for i = 0 to before - 1 do
           ignore (Mts.serve a tasks.(i))
         done;
         let buf = Buffer.create 64 in
         Mts.snapshot buf a;
         let snap = Buffer.contents buf in
         let b = build () in
         let r = Rbgp_util.Binc.reader snap in
         Mts.restore r b;
         let again = Buffer.create 64 in
         Mts.snapshot again b;
         let same_moves = ref true in
         for i = before to before + 199 do
           if Mts.serve a tasks.(i) <> Mts.serve b tasks.(i) then
             same_moves := false
         done;
         Rbgp_util.Binc.at_end r
         && String.equal snap (Buffer.contents again)
         && !same_moves
         && Mts.total_cost a = Mts.total_cost b
         && Mts.steps a = Mts.steps b))

let () =
  Alcotest.run "rbgp_mts"
    [
      ("metric", [ Alcotest.test_case "distances" `Quick test_metric ]);
      ( "mts",
        [
          Alcotest.test_case "accounting" `Quick test_mts_accounting;
          Alcotest.test_case "validation" `Quick test_mts_validation;
          qcheck_solver_snapshot;
        ] );
      ( "offline",
        [
          test_offline_vs_brute_line;
          test_offline_vs_brute_uniform;
          test_offline_indicators;
          test_offline_free_start;
        ] );
      ( "wfa",
        [
          test_wfa_competitive;
          test_wfa_work_function_invariants;
          Alcotest.test_case "stationary convergence" `Quick test_wfa_stationary;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "smin-mw distribution" `Quick test_smin_mw_distribution;
          Alcotest.test_case "smin-mw hammer" `Quick test_smin_mw_hammer;
          Alcotest.test_case "hst distribution" `Quick test_hst_distribution;
          Alcotest.test_case "hst rejects uniform" `Quick test_hst_rejects_uniform;
          test_randomized_reasonable;
          Alcotest.test_case "marking on uniform" `Quick test_marking_uniform;
          test_smin_mw_matches_reference;
          Alcotest.test_case "smin-mw: u >= L misses take the dense step"
            `Quick test_smin_mw_late_miss;
          Alcotest.test_case "smin-mw: below the weight floor" `Quick
            test_smin_mw_below_floor;
        ] );
    ]
