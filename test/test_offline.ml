(* Tests for the offline comparators: the Hungarian algorithm against
   permutation brute force, the static ring optimum (DP + Hungarian vs
   exhaustive search, certified lower bound ordering), the exact dynamic
   DP, and the windowed dynamic lower bound — the crucial property being
   that every "lower bound" is genuinely below the exact optimum on
   exhaustively checkable instances. *)

module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost
module Hungarian = Rbgp_offline.Hungarian
module Sopt = Rbgp_offline.Static_opt
module Dopt = Rbgp_offline.Dynamic_opt
module Lb = Rbgp_offline.Lower_bound
module Rng = Rbgp_util.Rng

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* --- Hungarian --------------------------------------------------------- *)

let matrix_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun n ->
    array_size (return n) (array_size (return n) (float_range (-5.0) 10.0)))

let test_hungarian_vs_brute =
  qtest ~count:300 "hungarian = brute force (incl. negative costs)" matrix_gen
    (fun m ->
      let _, h = Hungarian.solve m in
      let _, b = Hungarian.solve_brute m in
      Float.abs (h -. b) < 1e-6)

let test_hungarian_is_permutation =
  qtest ~count:300 "hungarian returns a permutation" matrix_gen (fun m ->
      let a, _ = Hungarian.solve m in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init (Array.length m) (fun i -> i))

let test_hungarian_known () =
  let m = [| [| 4.0; 1.0; 3.0 |]; [| 2.0; 0.0; 5.0 |]; [| 3.0; 2.0; 2.0 |] |] in
  let a, total = Hungarian.solve m in
  Alcotest.(check (float 1e-9)) "known optimum" 5.0 total;
  Alcotest.(check (array int)) "known assignment" [| 1; 0; 2 |] a

let test_hungarian_not_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Hungarian.solve: not square") (fun () ->
      ignore (Hungarian.solve [| [| 1.0 |]; [| 2.0 |] |] : int array * float))

(* --- static ring optimum ------------------------------------------------ *)

let tiny_ring_gen =
  QCheck2.Gen.(
    oneofl [ (6, 2); (6, 3); (8, 2); (9, 3) ] >>= fun (n, ell) ->
    list_size (int_range 0 40) (int_range 0 (n - 1)) >|= fun es ->
    (n, ell, Array.of_list es))

(* the blocks shapes of [tiny_ring_gen] (slack sigma = ell * k - n = 0)
   and shapes with spare capacity (sigma = 1, 2, 4) *)
let static_shape_gen =
  QCheck2.Gen.(
    oneofl
      [ (6, 2, 3); (6, 3, 2); (8, 2, 4); (9, 3, 3); (5, 2, 3); (7, 3, 3);
        (8, 3, 4) ]
    >>= fun (n, ell, k) ->
    list_size (int_range 0 40) (int_range 0 (n - 1)) >|= fun es ->
    (n, ell, k, Array.of_list es))

let print_shape (n, ell, k, trace) =
  Printf.sprintf "n=%d ell=%d k=%d trace=[%s]" n ell k
    (String.concat ";" (Array.to_list (Array.map string_of_int trace)))

let test_static_order =
  qtest ~count:150 ~print:print_shape "crossing LB <= brute force <= segmented"
    static_shape_gen (fun (n, ell, k, trace) ->
      let inst = Instance.make ~n ~ell ~k () in
      let lb = Sopt.crossing_lower_bound inst trace in
      let brute = Sopt.brute_force inst trace in
      let seg = Sopt.segmented inst trace in
      lb <= brute.Sopt.total && brute.Sopt.total <= seg.Sopt.total)

let test_static_solutions_priced =
  qtest ~count:150 ~print:print_shape "solutions re-price consistently"
    static_shape_gen (fun (n, ell, k, trace) ->
      let inst = Instance.make ~n ~ell ~k () in
      let check (s : Sopt.solution) =
        let again = Sopt.cost_of_assignment inst trace s.Sopt.assignment in
        again.Sopt.total = s.Sopt.total
        && again.Sopt.crossing = s.Sopt.crossing
        && again.Sopt.migration = s.Sopt.migration
        && s.Sopt.total = s.Sopt.crossing + s.Sopt.migration
      in
      check (Sopt.brute_force inst trace) && check (Sopt.segmented inst trace))

(* The full-table cycle DP over cut placements: every anchor, every
   layer, every position, each layer refilled per anchor.  With its
   Hungarian naming and the stay-at-initial candidate it is the oracle of
   [Sopt.segmented], which walks only this table's feasible band. *)
let unreachable = max_int / 4

module Window_min = struct
  type t = {
    k : int;
    idx : int array;
    value : int array;
    mutable head : int;
    mutable tail : int;
  }

  let create ~k ~capacity =
    { k; idx = Array.make capacity 0; value = Array.make capacity 0;
      head = 0; tail = 0 }

  let reset t =
    t.head <- 0;
    t.tail <- 0

  let push t i v =
    while t.tail > t.head && t.value.(t.tail - 1) >= v do
      t.tail <- t.tail - 1
    done;
    t.idx.(t.tail) <- i;
    t.value.(t.tail) <- v;
    t.tail <- t.tail + 1

  let min_before t i =
    while t.tail > t.head && t.idx.(t.head) < i - t.k do
      t.head <- t.head + 1
    done;
    if t.tail = t.head then unreachable else t.value.(t.head)
end

let full_table_cut_set (inst : Instance.t) x =
  let n = inst.Instance.n and k = inst.Instance.k and ell = inst.Instance.ell in
  let best = ref unreachable and best_cuts = ref None in
  let g = Array.make_matrix ell n unreachable in
  let parent = Array.make_matrix ell n (-1) in
  let w = Window_min.create ~k ~capacity:n in
  for c0 = 0 to Int.min (k - 1) (n - 1) do
    let arr i = x.((c0 + i) mod n) in
    for s = 0 to ell - 1 do
      Array.fill g.(s) 0 n unreachable;
      Array.fill parent.(s) 0 n (-1)
    done;
    g.(0).(0) <- arr 0;
    for s = 1 to ell - 1 do
      Window_min.reset w;
      let push i v = if v < unreachable then Window_min.push w i v in
      push 0 g.(s - 1).(0);
      for i = 1 to n - 1 do
        let m = Window_min.min_before w i in
        if m < unreachable then begin
          g.(s).(i) <- m + arr i;
          parent.(s).(i) <- w.Window_min.idx.(w.Window_min.head)
        end;
        push i g.(s - 1).(i)
      done
    done;
    for s = 0 to ell - 1 do
      for i = Int.max 1 (n - k) to n - 1 do
        if g.(s).(i) < !best then begin
          best := g.(s).(i);
          let cuts = ref [] in
          let cur = ref i and level = ref s in
          while !cur >= 0 && !level >= 0 do
            cuts := ((c0 + !cur) mod n) :: !cuts;
            let p = if !level = 0 then -1 else parent.(!level).(!cur) in
            cur := p;
            decr level
          done;
          best_cuts := Some !cuts
        end
      done
    done
  done;
  match !best_cuts with
  | Some cuts -> List.sort_uniq Int.compare cuts
  | None -> failwith "full_table_cut_set: no feasible segmented partition"

let oracle_segmented (inst : Instance.t) trace =
  let module Segment = Rbgp_ring.Segment in
  let n = inst.Instance.n and ell = inst.Instance.ell in
  let x = Array.make n 0 in
  Array.iter (fun e -> x.(e) <- x.(e) + 1) trace;
  let cuts = Array.of_list (full_table_cut_set inst x) in
  let m = Array.length cuts in
  let segment i = Segment.of_endpoints ~n ((cuts.(i) + 1) mod n) cuts.((i + 1) mod m) in
  let cost =
    Array.init ell (fun i ->
        Array.init ell (fun s ->
            if i < m then
              float_of_int
                (Segment.fold
                   (fun acc p ->
                     if inst.Instance.initial.(p) = s then acc else acc + 1)
                   0 (segment i))
            else 0.0))
  in
  let naming, _ = Hungarian.solve cost in
  let a = Array.make n (-1) in
  for i = 0 to m - 1 do
    Segment.iter (fun p -> a.(p) <- naming.(i)) (segment i)
  done;
  let dp = Sopt.cost_of_assignment inst trace a in
  let stay = Sopt.cost_of_assignment inst trace inst.Instance.initial in
  if stay.Sopt.total <= dp.Sopt.total then stay else dp

(* random shapes with n <= ell * k and any slack, a random balanced
   initial assignment, and traces skewed onto a few hot edges (so that
   many cut sets tie and the tie-breaks show) *)
let banded_gen =
  QCheck2.Gen.(
    let* ell = int_range 2 6 in
    let* k = int_range 1 8 in
    let* n = int_range (k + 1) (ell * k) in
    let* slots = shuffle_l (List.init (ell * k) (fun i -> i / k)) in
    let initial = Array.of_list (List.filteri (fun i _ -> i < n) slots) in
    let* hot = list_size (int_range 1 3) (int_bound (n - 1)) in
    let* trace =
      array_size (int_bound 60)
        (frequency [ (3, oneofl hot); (1, int_bound (n - 1)) ])
    in
    return (n, ell, k, initial, trace))

let test_segmented_eq_full_table =
  qtest ~count:2000 "segmented = full-table DP oracle (any slack)"
    ~print:(fun (n, ell, k, initial, trace) ->
      let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
      Printf.sprintf "n=%d ell=%d k=%d initial=[%s] trace=[%s]" n ell k
        (ints initial) (ints trace))
    banded_gen
    (fun (n, ell, k, initial, trace) ->
      let inst = Instance.make ~n ~ell ~k ~initial () in
      let got = Sopt.segmented inst trace and want = oracle_segmented inst trace in
      got.Sopt.assignment = want.Sopt.assignment
      && got.Sopt.crossing = want.Sopt.crossing
      && got.Sopt.total = want.Sopt.total)

let test_static_empty_trace () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let s = Sopt.segmented inst [||] in
  Alcotest.(check int) "empty trace is free" 0 s.Sopt.total;
  let b = Sopt.brute_force inst [||] in
  Alcotest.(check int) "brute agrees" 0 b.Sopt.total

let test_static_hot_edge () =
  (* all requests on one edge: OPT avoids cutting it *)
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let trace = Array.make 100 3 (* edge 3 is an initial cut *) in
  let s = Sopt.segmented inst trace in
  Alcotest.(check bool) "avoids the hot edge" true (s.Sopt.crossing = 0);
  Alcotest.(check bool) "pays only migration" true (s.Sopt.total <= 4)

let test_cost_of_assignment_validation () =
  let inst = Instance.blocks ~n:4 ~ell:2 in
  Alcotest.check_raises "unbalanced"
    (Invalid_argument "Static_opt.cost_of_assignment: unbalanced assignment")
    (fun () ->
      ignore (Sopt.cost_of_assignment inst [| 0 |] [| 0; 0; 0; 1 |]))

let test_requires_split () =
  let inst = Instance.make ~n:4 ~ell:2 ~k:4 () in
  Alcotest.check_raises "n <= k rejected"
    (Invalid_argument "Static_opt: requires n > k (ring must be split)")
    (fun () -> ignore (Sopt.segmented inst [| 0 |]))

(* --- dynamic optimum ----------------------------------------------------- *)

let test_dopt_state_count () =
  (* partitions into ell blocks of k: n! / ((k!)^ell ell!), C(4,2) / 2! = 3
     at (4, 2) *)
  List.iter
    (fun (n, ell, m) ->
      let dp = Dopt.enumerate_states (Instance.blocks ~n ~ell) () in
      Alcotest.(check int) (Printf.sprintf "states (%d, %d)" n ell) m
        (Dopt.state_count dp))
    [
      (4, 2, 3); (6, 3, 15); (8, 2, 35); (9, 3, 280); (10, 2, 126); (8, 4, 105);
    ]

(* every assignment with loads at most k *)
let balanced_states (inst : Instance.t) =
  let states = ref [] in
  let n = inst.Instance.n and ell = inst.Instance.ell and k = inst.Instance.k in
  let a = Array.make n 0 in
  let loads = Array.make ell 0 in
  let rec gen p =
    if p = n then states := Array.copy a :: !states
    else
      for s = 0 to ell - 1 do
        if loads.(s) < k then begin
          a.(p) <- s;
          loads.(s) <- loads.(s) + 1;
          gen (p + 1);
          loads.(s) <- loads.(s) - 1
        end
      done
  in
  gen 0;
  Array.of_list !states

let hamming x y =
  let d = ref 0 in
  Array.iteri (fun i v -> if v <> y.(i) then incr d) x;
  !d

let brute_dynamic inst trace =
  (* exhaustive search over schedules of configurations (tiny instances
     only) *)
  let n = inst.Instance.n in
  let states = balanced_states inst in
  let best = ref max_int in
  let steps = Array.length trace in
  let rec go t prev acc =
    if acc >= !best then ()
    else if t = steps then best := acc
    else
      Array.iter
        (fun c ->
          let e = trace.(t) in
          let comm = if c.(e) <> c.((e + 1) mod n) then 1 else 0 in
          go (t + 1) c (acc + hamming prev c + comm))
        states
  in
  go 0 inst.Instance.initial 0;
  !best

let test_dopt_vs_brute =
  qtest ~count:25 "dynamic DP = schedule brute force"
    QCheck2.Gen.(
      list_size (int_range 0 4) (int_range 0 3) >|= fun es -> Array.of_list es)
    (fun trace ->
      let inst = Instance.blocks ~n:4 ~ell:2 in
      let dp = Dopt.enumerate_states inst () in
      Cost.total (Dopt.solve dp trace) = brute_dynamic inst trace)

let test_dopt_le_static =
  qtest ~count:100 "dynamic OPT <= static OPT" tiny_ring_gen
    (fun (n, ell, trace) ->
      let inst = Instance.blocks ~n ~ell in
      let dp = Dopt.enumerate_states inst () in
      Cost.total (Dopt.solve dp trace) <= (Sopt.brute_force inst trace).Sopt.total)

let test_dopt_schedule_replays () =
  let inst = Instance.blocks ~n:6 ~ell:2 in
  let rng = Rng.create 3 in
  let trace = Array.init 100 (fun _ -> Rng.int rng 6) in
  let dp = Dopt.enumerate_states inst () in
  let schedule, cost = Dopt.solve_schedule dp trace in
  let replay = Rbgp_ring.Simulator.replay_cost inst trace ~assignments:schedule in
  Alcotest.(check int) "replay agrees" (Cost.total cost) (Cost.total replay)

let test_dopt_too_large () =
  let inst = Instance.blocks ~n:16 ~ell:4 in
  Alcotest.(check bool) "raises on large space" true
    (try
       ignore (Dopt.enumerate_states inst ~max_states:100 ());
       false
     with Invalid_argument _ -> true)

(* --- small shapes under every workload generator -------------------------- *)

(* Every feasible small shape; the last four have spare capacity, so not
   every block is full and a partition may have fewer than ell blocks
   ((4, 4, 4) starts with every process on one server). *)
let dopt_shapes =
  Array.append
    (Array.map
       (fun (n, ell) -> Instance.blocks ~n ~ell)
       [| (4, 2); (6, 2); (6, 3); (8, 2); (8, 4); (9, 3); (10, 2) |])
    [|
      Instance.make ~n:5 ~ell:2 ~k:3 ();
      Instance.make ~n:7 ~ell:3 ~k:3 ();
      Instance.make ~n:5 ~ell:3 ~k:2 ();
      Instance.make ~n:4 ~ell:4 ~k:4 ();
    |]

(* a random shape and a 20-request trace from one oblivious generator *)
let dopt_case_gen =
  QCheck2.Gen.(
    int_range 0 (Array.length dopt_shapes - 1) >>= fun si ->
    int_range 0 10_000 >>= fun seed ->
    nat >|= fun wi -> (si, seed, wi))

let print_dopt_case (si, seed, wi) =
  Printf.sprintf "shape %d, seed %d, workload %d" si seed wi

let dopt_case (si, seed, wi) =
  let inst = dopt_shapes.(si) in
  let n = inst.Instance.n in
  let workloads =
    Rbgp_workloads.Workloads.all_fixed ~n ~steps:20 (Rng.create seed)
  in
  match List.nth workloads (wi mod List.length workloads) with
  | _, Rbgp_ring.Trace.Fixed t -> (inst, t)
  | _ -> assert false (* all_fixed only yields fixed traces *)

(* the dominance-pruned DP must return the exhaustive reference
   relaxation's schedule and cost exactly (both break ties the same way) *)
let test_dopt_pruned_eq_reference =
  qtest ~count:70 "pruned DP = reference DP (all workload generators)"
    ~print:print_dopt_case dopt_case_gen (fun case ->
      let inst, trace = dopt_case case in
      let dp = Dopt.shared inst () in
      let schedule, cost = Dopt.solve_schedule dp trace in
      let ref_schedule, ref_cost = Dopt.solve_schedule ~reference:true dp trace in
      schedule = ref_schedule && Cost.total cost = Cost.total ref_cost)

(* The labeled state space the partition DP quotients: every assignment
   with loads at most k under Hamming distance, relaxed densely, O(m^2)
   per request over a byte matrix built once per shape. *)
let labeled_dp (inst : Instance.t) =
  let n = inst.Instance.n in
  let states = balanced_states inst in
  let m = Array.length states in
  let dist = Bytes.create (m * m) in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y -> Bytes.set dist ((i * m) + j) (Char.chr (hamming x y)))
        states)
    states;
  fun trace ->
    let cost = Array.map (hamming inst.Instance.initial) states in
    let next = Array.make m 0 in
    Array.iter
      (fun e ->
        let e' = (e + 1) mod n in
        for j = 0 to m - 1 do
          let best = ref max_int and row = j * m in
          for i = 0 to m - 1 do
            best :=
              Int.min !best (cost.(i) + Char.code (Bytes.get dist (row + i)))
          done;
          let s = states.(j) in
          next.(j) <- (!best + if s.(e) <> s.(e') then 1 else 0)
        done;
        Array.blit next 0 cost 0 m)
      trace;
    Array.fold_left Int.min max_int cost

let labeled_dps = Array.map (fun inst -> lazy (labeled_dp inst)) dopt_shapes

let test_dopt_eq_labeled =
  qtest ~count:70 "partition DP = labeled DP (all workload generators)"
    ~print:print_dopt_case dopt_case_gen (fun ((si, _, _) as case) ->
      let inst, trace = dopt_case case in
      Cost.total (Dopt.solve (Dopt.shared inst ()) trace)
      = Lazy.force labeled_dps.(si) trace)

(* --- canonicalization ----------------------------------------------------- *)

(* servers renamed in order of first appearance *)
let relabeled a =
  let names = Hashtbl.create 4 in
  Array.map
    (fun s ->
      match Hashtbl.find_opt names s with
      | Some v -> v
      | None ->
          let v = Hashtbl.length names in
          Hashtbl.add names s v;
          v)
    a

let test_symmetry_classes () =
  (* n=4, ell=2: six balanced configurations, three classes under server
     relabeling, each one partition state *)
  let inst = Instance.blocks ~n:4 ~ell:2 in
  Alcotest.(check int) "states" 3 (Dopt.state_count (Dopt.shared inst ()));
  let classes =
    List.sort_uniq compare
      (Array.to_list (Array.map relabeled (balanced_states inst)))
  in
  Alcotest.(check int) "classes" 3 (List.length classes)

let test_shared_is_cached () =
  let inst = Instance.blocks ~n:6 ~ell:3 in
  let a = Dopt.shared inst () and b = Dopt.shared inst () in
  Alcotest.(check bool) "same table returned" true (a == b)

(* --- lower bounds --------------------------------------------------------- *)

let test_dynamic_lb_certified =
  (* the heart of E3's validity: the windowed bound never exceeds the exact
     dynamic optimum *)
  qtest ~count:100 "windowed LB <= exact dynamic OPT" tiny_ring_gen
    (fun (n, ell, trace) ->
      let inst = Instance.blocks ~n ~ell in
      let dp = Dopt.enumerate_states inst () in
      Lb.dynamic_lb inst trace () <= Cost.total (Dopt.solve dp trace))

(* The oracle of dynamic_lb's phase count: a window's uniform tracking
   DP (free start, unit hits and switches).  opt.(s) is the cheapest
   tracking sequence currently at window edge s, and a request on local
   edge r maps opt(s) to min(opt(s), min_all + 1) + [s = r]. *)
let window_dp ~edges requests =
  let opt = Array.make edges 0 in
  let mn = ref 0 in
  List.iter
    (fun r ->
      let cap = !mn + 1 in
      let new_mn = ref max_int in
      for s = 0 to edges - 1 do
        let v = Stdlib.min opt.(s) cap + if s = r then 1 else 0 in
        opt.(s) <- v;
        if v < !new_mn then new_mn := v
      done;
      mn := !new_mn)
    requests;
  !mn

(* dynamic_lb at one offset, one window_dp per window over the window's
   requests in local coordinates *)
let oracle_lb_for_offset (inst : Instance.t) trace offset =
  let n = inst.Instance.n and k = inst.Instance.k in
  let stride = k + 2 in
  let windows =
    if n >= stride then n / stride else if n >= k + 1 then 1 else 0
  in
  let total = ref 0 in
  for w = 0 to windows - 1 do
    let base = (offset + (w * stride)) mod n in
    let local e = (e - base + n) mod n in
    let requests =
      List.filter_map
        (fun e -> if local e < k then Some (local e) else None)
        (Array.to_list trace)
    in
    total := !total + window_dp ~edges:k requests
  done;
  !total

let default_offsets k = [ 0; (k + 2) / 3; 2 * (k + 2) / 3 ]

(* one window (ell = 2 leaves room for exactly one), its edges requested
   about half the time so phases complete *)
let lb_window_gen =
  QCheck2.Gen.(
    let* k = int_range 1 12 in
    let n = 2 * k in
    let* offset = int_bound (n - 1) in
    let edge =
      oneof
        [
          int_bound (n - 1);
          map (fun j -> (offset + j) mod n) (int_bound (k - 1));
        ]
    in
    let* trace = array_size (int_bound 400) edge in
    return (k, offset, trace))

let test_phase_count_matches_window_dp =
  qtest ~count:500 "phase counting = window_dp (random windows)" lb_window_gen
    (fun (k, offset, trace) ->
      let inst = Instance.blocks ~n:(2 * k) ~ell:2 in
      Lb.dynamic_lb inst trace ~offsets:[ offset ] ()
      = oracle_lb_for_offset inst trace offset)

let test_dynamic_lb_matches_oracle =
  qtest ~count:200 "dynamic_lb = window_dp oracle (whole instances)"
    QCheck2.Gen.(
      let* ell = int_range 1 8 in
      let* k = int_range 1 10 in
      let n = ell * k in
      let* trace = array_size (int_bound 600) (int_bound (n - 1)) in
      return (ell, k, trace))
    (fun (ell, k, trace) ->
      let inst = Instance.blocks ~n:(ell * k) ~ell in
      let per_offset =
        List.map
          (fun off ->
            Lb.dynamic_lb inst trace ~offsets:[ off ] ()
            = oracle_lb_for_offset inst trace off)
          (default_offsets k)
      in
      List.for_all Fun.id per_offset
      && Lb.dynamic_lb inst trace ()
         = List.fold_left
             (fun acc off ->
               Stdlib.max acc (oracle_lb_for_offset inst trace off))
             0 (default_offsets k))

let test_dynamic_heuristic_bracket =
  (* the feasible windowed schedule must land between the exact optimum and
     the (re-priced) static optimum *)
  qtest ~count:60 "LB <= exact OPT <= windowed UB <= static total"
    tiny_ring_gen (fun (n, ell, trace) ->
      let inst = Instance.blocks ~n ~ell in
      let dp = Dopt.enumerate_states inst () in
      let exact = Cost.total (Dopt.solve dp trace) in
      let _, ub = Rbgp_offline.Dynamic_heuristic.best inst trace ~windows:[ 4; 16; max 1 (Array.length trace) ] () in
      let static_total = (Sopt.segmented inst trace).Sopt.total in
      let lb = Lb.dynamic_lb inst trace () in
      lb <= exact
      && exact <= Cost.total ub
      && Cost.total ub <= static_total)

let test_interval_opt_sane () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let rng = Rng.create 5 in
  let trace = Array.init 2_000 (fun _ -> Rng.int rng 64) in
  let o = Lb.interval_opt inst trace ~shift:0 ~epsilon:0.5 in
  Alcotest.(check bool) "positive on busy trace" true (o > 0.0);
  Alcotest.(check (float 1e-9)) "empty trace free" 0.0
    (Lb.interval_opt inst [||] ~shift:0 ~epsilon:0.5);
  (* restricting requests can only reduce per-interval optima relative to
     hammering every edge uniformly often; smoke: monotone in trace prefix *)
  let half = Array.sub trace 0 1_000 in
  Alcotest.(check bool) "monotone in prefix" true
    (Lb.interval_opt inst half ~shift:0 ~epsilon:0.5 <= o +. 1e-9)

let () =
  Alcotest.run "rbgp_offline"
    [
      ( "hungarian",
        [
          test_hungarian_vs_brute;
          test_hungarian_is_permutation;
          Alcotest.test_case "known matrix" `Quick test_hungarian_known;
          Alcotest.test_case "not square" `Quick test_hungarian_not_square;
        ] );
      ( "static-opt",
        [
          test_static_order;
          test_static_solutions_priced;
          test_segmented_eq_full_table;
          Alcotest.test_case "empty trace" `Quick test_static_empty_trace;
          Alcotest.test_case "hot edge avoided" `Quick test_static_hot_edge;
          Alcotest.test_case "validation" `Quick test_cost_of_assignment_validation;
          Alcotest.test_case "requires n > k" `Quick test_requires_split;
        ] );
      ( "dynamic-opt",
        [
          Alcotest.test_case "state count" `Quick test_dopt_state_count;
          test_dopt_vs_brute;
          test_dopt_le_static;
          Alcotest.test_case "schedule replays" `Quick test_dopt_schedule_replays;
          Alcotest.test_case "size guard" `Quick test_dopt_too_large;
          test_dopt_pruned_eq_reference;
          test_dopt_eq_labeled;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "symmetry classes n=4 ell=2" `Quick
            test_symmetry_classes;
          Alcotest.test_case "shared table cached" `Quick test_shared_is_cached;
        ] );
      ( "lower-bounds",
        [
          test_dynamic_lb_certified;
          test_phase_count_matches_window_dp;
          test_dynamic_lb_matches_oracle;
          test_dynamic_heuristic_bracket;
          Alcotest.test_case "interval opt sanity" `Quick test_interval_opt_sane;
        ] );
    ]
