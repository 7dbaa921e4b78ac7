(* Tests for the deterministic work pool and the journal-driven simulator
   accounting.

   The pool's contract is that parallel execution is observationally
   identical to sequential execution: same results, same order, same
   surfaced exception, same experiment tables byte for byte.  The journal's
   contract is that O(moves+1) accounting bills exactly what an O(n+ell)
   diff_into/scan oracle bills, on every algorithm and any trace. *)

module Rng = Rbgp_util.Rng
module Pool = Rbgp_util.Pool
module Simulator = Rbgp_ring.Simulator
module Assignment = Rbgp_ring.Assignment
module Online = Rbgp_ring.Online
module Trace = Rbgp_ring.Trace
module Cost = Rbgp_ring.Cost
module Runner = Rbgp_harness.Runner
module Report = Rbgp_harness.Report

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Pool ----------------------------------------------------------- *)

let test_map_matches_sequential () =
  let items = Array.init 257 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f items in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        expected
        (Pool.map ~domains:d f items))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~domains:4 succ [||]);
  Alcotest.(check (array int)) "single" [| 3 |] (Pool.map ~domains:4 succ [| 2 |])

let test_map_list_order () =
  let l = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> 3 * x) l)
    (Pool.map_list ~domains:4 (fun x -> 3 * x) l)

exception Boom of int

let test_map_first_error () =
  (* several items raise; the pool must surface the smallest index, like a
     sequential loop would *)
  let items = Array.init 64 (fun i -> i) in
  let f x = if x mod 10 = 3 then raise (Boom x) else x in
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "first error, domains=%d" d)
        (Boom 3)
        (fun () -> ignore (Pool.map ~domains:d f items)))
    [ 1; 4 ]

let test_map_seeded_deterministic () =
  let run d =
    Pool.map_seeded ~domains:d ~rng:(Rng.create 99)
      (fun rng x -> (x, Rng.int rng 1_000_000, Rng.int rng 1_000_000))
      (Array.init 50 (fun i -> i))
  in
  let seq =
    let rng = Rng.create 99 in
    Array.map
      (fun x ->
        let child = Rng.split rng in
        (x, Rng.int child 1_000_000, Rng.int child 1_000_000))
      (Array.init 50 (fun i -> i))
  in
  Alcotest.(check bool) "matches sequential" true (run 1 = seq);
  Alcotest.(check bool) "matches with 4 domains" true (run 4 = seq)

let test_set_domains () =
  Pool.set_domains (Some 3);
  Alcotest.(check int) "override" 3 (Pool.domains ());
  Pool.set_domains None;
  Alcotest.(check bool) "auto >= 1" true (Pool.domains () >= 1);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Pool.set_domains: need at least 1 domain") (fun () ->
      Pool.set_domains (Some 0))

let test_set_grain () =
  Pool.set_grain (Some 7);
  Alcotest.(check (option int)) "override" (Some 7) (Pool.grain ());
  Pool.set_grain None;
  Alcotest.(check (option int)) "auto" None (Pool.grain ());
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Pool.set_grain: need a grain of at least 1") (fun () ->
      Pool.set_grain (Some 0))

let test_map_under_grain () =
  (* correctness must not depend on the scheduling grain: chunk-of-1
     maximizes hand-offs, a huge grain collapses to one chunk per worker *)
  let items = Array.init 311 (fun i -> i) in
  let f x = (x * 7) - 2 in
  let expected = Array.map f items in
  Fun.protect
    (fun () ->
      List.iter
        (fun g ->
          Pool.set_grain (Some g);
          Alcotest.(check (array int))
            (Printf.sprintf "grain=%d" g)
            expected
            (Pool.map ~domains:4 f items))
        [ 1; 3; 1000 ])
    ~finally:(fun () -> Pool.set_grain None)

(* Run [f] under a sequential cutoff of 10 s.  The first tagged map of a
   family runs in parallel, and on a loaded host its wall time is noisy
   enough to push est * n past the 200 us default; no scheduler noise
   carries a job of a few hundred [succ] calls past 10 s.  The default
   itself is checked in "sequential cutoff override". *)
let with_pinned_cutoff f =
  Fun.protect
    ~finally:(fun () -> Pool.set_sequential_cutoff None)
    (fun () ->
      Pool.set_sequential_cutoff (Some 1e10);
      f ())

let test_auto_grain_estimates () =
  with_pinned_cutoff @@ fun () ->
  Pool.reset_estimates ();
  Alcotest.(check bool)
    "no estimate before any tagged map" true
    (Pool.estimated_cost_ns "test.family" = None);
  let items = Array.init 300 (fun i -> i) in
  let expected = Array.map succ items in
  (* first tagged map: no estimate yet, optimistic parallel dispatch *)
  Alcotest.(check (array int))
    "first tagged map" expected
    (Pool.map ~domains:4 ~family:"test.family" succ items);
  (match Pool.estimated_cost_ns "test.family" with
  | Some c -> Alcotest.(check bool) "estimate recorded" true (c >= 0.0)
  | None -> Alcotest.fail "tagged map left no cost estimate");
  (* with an estimate this cheap, est * n is far under the cutoff: the
     job must now take the sequential path — with identical results *)
  Alcotest.(check (array int))
    "tiny tagged job identical" expected
    (Pool.map ~domains:4 ~family:"test.family" succ items);
  Alcotest.(check bool)
    "tiny tagged job stayed sequential" false
    (Pool.last_map_parallel ());
  Pool.reset_estimates ();
  Alcotest.(check bool)
    "reset drops estimates" true
    (Pool.estimated_cost_ns "test.family" = None)

let test_auto_grain_forced_grain_wins () =
  (* an explicit grain disables the cost heuristic: the job goes parallel
     with the forced chunk size even though its estimate says "tiny" *)
  with_pinned_cutoff @@ fun () ->
  Pool.reset_estimates ();
  let items = Array.init 128 (fun i -> i) in
  ignore (Pool.map ~domains:4 ~family:"test.grain" succ items);
  ignore (Pool.map ~domains:4 ~family:"test.grain" succ items);
  Alcotest.(check bool)
    "heuristic keeps it sequential" false
    (Pool.last_map_parallel ());
  Fun.protect
    ~finally:(fun () -> Pool.set_grain None)
    (fun () ->
      Pool.set_grain (Some 8);
      Alcotest.(check (array int))
        "forced grain, same results"
        (Array.map succ items)
        (Pool.map ~domains:4 ~family:"test.grain" succ items);
      Alcotest.(check bool)
        "forced grain dispatches in parallel" true
        (Pool.last_map_parallel ()));
  Pool.reset_estimates ()

let test_sequential_cutoff_override () =
  Alcotest.(check bool)
    "default cutoff" true
    (Pool.sequential_cutoff_ns () = 200_000.0);
  Pool.reset_estimates ();
  let items = Array.init 64 (fun i -> i) in
  ignore (Pool.map ~domains:4 ~family:"test.cutoff" succ items);
  Fun.protect
    ~finally:(fun () -> Pool.set_sequential_cutoff None)
    (fun () ->
      (* a near-zero cutoff means nothing is "small": even this tiny job
         dispatches in parallel *)
      Pool.set_sequential_cutoff (Some 1e-6);
      Alcotest.(check (array int))
        "tiny cutoff, same results"
        (Array.map succ items)
        (Pool.map ~domains:4 ~family:"test.cutoff" succ items);
      Alcotest.(check bool)
        "tiny cutoff dispatches in parallel" true
        (Pool.last_map_parallel ()));
  Alcotest.check_raises "non-positive cutoff rejected"
    (Invalid_argument "Pool.set_sequential_cutoff: need a positive cutoff")
    (fun () -> Pool.set_sequential_cutoff (Some 0.0));
  Pool.reset_estimates ()

let test_warmup_shutdown_idempotent () =
  (* warmup twice, shutdown twice, then map must still work (workers are
     respawned on demand after a shutdown) *)
  Pool.warmup ~domains:4 ();
  Pool.warmup ~domains:4 ();
  Pool.shutdown ();
  Pool.shutdown ();
  let items = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int))
    "map after shutdown"
    (Array.map succ items)
    (Pool.map ~domains:4 succ items);
  Pool.shutdown ()

let test_nested_map_falls_back () =
  (* a map issued from inside a pool task cannot use the single job slot;
     it must fall back to sequential execution rather than deadlock *)
  let outer = Array.init 8 (fun i -> i) in
  let f x =
    Array.fold_left ( + ) 0 (Pool.map ~domains:4 (fun y -> x + y) (Array.init 16 (fun i -> i)))
  in
  let expected = Array.map f outer in
  Alcotest.(check (array int))
    "nested map"
    expected
    (Pool.map ~domains:4 f outer)

(* --- experiment tables: parallel == sequential byte for byte --------- *)

let with_stdout_captured f =
  flush stdout;
  let path = Filename.temp_file "rbgp_pool_test" ".txt" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let ic = open_in_bin path in
  let s =
    Fun.protect
      (fun () -> really_input_string ic (in_channel_length ic))
      ~finally:(fun () -> close_in ic)
  in
  Sys.remove path;
  s

let table_of id domains =
  Pool.set_domains (Some domains);
  Fun.protect
    (fun () ->
      with_stdout_captured (fun () -> Report.run ~quick:true ~seed:42 id))
    ~finally:(fun () -> Pool.set_domains None)

let test_experiment_determinism id () =
  let seq = table_of id 1 in
  let par = table_of id 4 in
  Alcotest.(check bool)
    (id ^ " quick table nonempty")
    true
    (String.length seq > 0);
  Alcotest.(check string) (id ^ " parallel == sequential") seq par

(* --- journal accounting vs the diff_into oracle ------------------------ *)

let gen_case =
  QCheck2.Gen.(
    let* ell = oneofl [ 2; 3; 4 ] in
    let* blocks = int_range 2 6 in
    let n = ell * blocks in
    let* steps = int_range 1 120 in
    let* seed = int_range 0 10_000 in
    let* trace = array_size (return steps) (int_range 0 (n - 1)) in
    return (n, ell, seed, trace))

(* Runs [spec] through the simulator while a test-held copy of the
   assignment re-derives every step's bill the O(n + ell) way: migrations
   are the diff_into distance to the previous step, the running maximum is
   the max of Assignment.max_load, and a violation is a step that fails
   check_capacity.  The journal-billed result must agree on all three. *)
let matches_oracle (n, ell, seed, trace) (spec : Runner.alg_spec) =
  let inst = Runner.instance ~n ~ell in
  let alg = spec.Runner.build inst ~trace ~seed in
  let current = alg.Online.assignment () in
  let oracle = Assignment.copy current in
  let max_load = ref (Assignment.max_load oracle) in
  let violations = ref 0 in
  let mig = ref 0 in
  let per_step_ok = ref true in
  let on_step _ (c : Cost.t) =
    let d = Assignment.diff_into current oracle in
    if c.Cost.mig - !mig <> d then per_step_ok := false;
    mig := c.Cost.mig;
    max_load := max !max_load (Assignment.max_load oracle);
    if
      not
        (Assignment.check_capacity oracle ~augmentation:alg.Online.augmentation)
    then incr violations
  in
  let r =
    Simulator.run ~strict:false ~on_step inst alg (Trace.fixed trace)
      ~steps:(Array.length trace)
  in
  !per_step_ok
  && r.Simulator.cost.Cost.mig = !mig
  && r.Simulator.max_load = !max_load
  && r.Simulator.capacity_violations = !violations

let prop_matches_oracle specs case = List.for_all (matches_oracle case) specs

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "empty and single" `Quick test_map_empty_and_single;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "first error wins" `Quick test_map_first_error;
          Alcotest.test_case "map_seeded deterministic" `Quick
            test_map_seeded_deterministic;
          Alcotest.test_case "set_domains" `Quick test_set_domains;
          Alcotest.test_case "set_grain" `Quick test_set_grain;
          Alcotest.test_case "auto-grain cost estimates" `Quick
            test_auto_grain_estimates;
          Alcotest.test_case "auto-grain vs forced grain" `Quick
            test_auto_grain_forced_grain_wins;
          Alcotest.test_case "sequential cutoff override" `Quick
            test_sequential_cutoff_override;
          Alcotest.test_case "map under grain overrides" `Quick
            test_map_under_grain;
          Alcotest.test_case "warmup/shutdown idempotent" `Quick
            test_warmup_shutdown_idempotent;
          Alcotest.test_case "nested map falls back" `Quick
            test_nested_map_falls_back;
        ] );
      ( "experiment determinism",
        [
          Alcotest.test_case "e8 quick" `Quick (test_experiment_determinism "e8");
          Alcotest.test_case "e9 quick" `Quick (test_experiment_determinism "e9");
          Alcotest.test_case "e10 quick" `Quick
            (test_experiment_determinism "e10");
        ] );
      ( "journal accounting",
        [
          qtest ~count:40 "incremental matches oracle (core + baselines)"
            gen_case
            (prop_matches_oracle
               (Runner.core_algorithms ~epsilon:0.5
               @ Runner.baseline_algorithms ~epsilon:0.5));
          qtest ~count:20 "mts variants match oracle" gen_case
            (prop_matches_oracle (Runner.mts_variants ~epsilon:0.5));
        ] );
    ]
