(* Tests for the deterministic work pool and the journal-driven simulator
   accounting.

   The pool's contract is that parallel execution is observationally
   identical to sequential execution: same results, same order, same
   surfaced exception, same experiment tables byte for byte.  The journal's
   contract is that O(moves+1) accounting bills exactly what an O(n+ell)
   diff_into/scan oracle bills, on every algorithm and any trace. *)

module Pool = Rbgp_util.Pool
module Simulator = Rbgp_ring.Simulator
module Assignment = Rbgp_ring.Assignment
module Online = Rbgp_ring.Online
module Trace = Rbgp_ring.Trace
module Cost = Rbgp_ring.Cost
module Instance = Rbgp_ring.Instance
module Registry = Rbgp_serve.Registry
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
  Alcotest.(check (array int)) "single" [| 3 |] (Pool.map ~domains:4 succ [| 2 |]);
  Alcotest.(check bool)
    "a single item stays sequential" false
    (Pool.last_map_parallel ())

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

let test_set_domains () =
  Pool.set_domains (Some 3);
  Alcotest.(check int) "override" 3 (Pool.domains ());
  Pool.set_domains None;
  Alcotest.(check bool) "auto >= 1" true (Pool.domains () >= 1);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Pool.set_domains: need at least 1 domain") (fun () ->
      Pool.set_domains (Some 0))

let test_map_over_chunk_sizes () =
  (* correctness must not depend on the chunk size [max 1 (n / (8 d))]:
     with 4 domains, up to 63 items are claimed one by one (the most
     hand-offs), more in chunks of 2 and above *)
  let f x = (x * 7) - 2 in
  List.iter
    (fun n ->
      let items = Array.init n (fun i -> i) in
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d" n)
        (Array.map f items)
        (Pool.map ~domains:4 f items);
      Alcotest.(check bool)
        (Printf.sprintf "n=%d dispatched in parallel" n)
        true
        (Pool.last_map_parallel ()))
    [ 2; 31; 63; 64; 311; 5000 ]

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
   assignment re-derives every step's bill the O(n + ell) way:
   communication is whether the copy, still at the previous step, cuts
   the requested edge, migrations are the diff_into distance to the
   previous step, the running maximum is the max of Assignment.max_load,
   and a violation is a step that fails check_capacity.  The
   shadow-and-journal-billed result must agree on all four. *)
let matches_oracle (n, ell, seed, trace) name =
  let inst = Instance.blocks ~n ~ell in
  let alg = Registry.build_for_trace name ~epsilon:0.5 ~seed ~trace inst in
  let current = alg.Online.assignment () in
  let oracle = Assignment.copy current in
  let max_load = ref (Assignment.max_load oracle) in
  let violations = ref 0 in
  let comm = ref 0 in
  let mig = ref 0 in
  let per_step_ok = ref true in
  let on_step t (c : Cost.t) =
    let cut = if Assignment.cuts_edge oracle trace.(t) then 1 else 0 in
    if c.Cost.comm - !comm <> cut then per_step_ok := false;
    comm := c.Cost.comm;
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
  && r.Simulator.cost.Cost.comm = !comm
  && r.Simulator.cost.Cost.mig = !mig
  && r.Simulator.max_load = !max_load
  && r.Simulator.capacity_violations = !violations

let prop_matches_oracle names case = List.for_all (matches_oracle case) names

(* Every name the experiments build, in two groups that share
   onl-dynamic (the smin-MW variant): the paper's algorithms and the
   baselines, static-oracle included, and onl-dynamic with each MTS
   solver. *)
let is_variant name = String.starts_with ~prefix:"dyn/" name

let core_and_baselines =
  List.filter (fun name -> not (is_variant name)) Registry.names
  @ [ "static-oracle" ]

let mts_variants =
  "onl-dynamic" :: List.filter is_variant Registry.names

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
          Alcotest.test_case "set_domains" `Quick test_set_domains;
          Alcotest.test_case "map over chunk sizes" `Quick
            test_map_over_chunk_sizes;
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
            (prop_matches_oracle core_and_baselines);
          qtest ~count:20 "mts variants match oracle" gen_case
            (prop_matches_oracle mts_variants);
        ] );
    ]
