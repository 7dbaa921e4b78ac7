(* Tests for the workload generators: edge ranges, the documented
   structural properties of each regime (determinism of allreduce, skew of
   zipf, drift of rotating, phase changes of piecewise), and the adaptive
   cut-chaser actually chasing cuts. *)

module W = Rbgp_workloads.Workloads
module Trace = Rbgp_ring.Trace
module Instance = Rbgp_ring.Instance
module Assignment = Rbgp_ring.Assignment
module Rng = Rbgp_util.Rng

let arr = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let in_range ~n a = Array.for_all (fun e -> e >= 0 && e < n) a

let counts ~n a =
  let c = Array.make n 0 in
  Array.iter (fun e -> c.(e) <- c.(e) + 1) a;
  c

let test_ranges () =
  let n = 64 and steps = 2_000 in
  let rng = Rng.create 1 in
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool) (name ^ " in range") true (in_range ~n (arr t));
      Alcotest.(check int)
        (name ^ " length")
        steps
        (Array.length (arr t)))
    (W.all_fixed ~n ~steps rng)

let test_allreduce_deterministic () =
  let t = arr (W.allreduce ~n:8 ~steps:20) in
  Alcotest.(check (array int)) "cyclic sweep"
    (Array.init 20 (fun i -> i mod 8))
    t

let test_hotspot_concentrated () =
  let n = 64 in
  let t = arr (W.hotspot ~n ~steps:10_000 ~arc:4 ~heat:0.9 (Rng.create 2)) in
  let c = counts ~n t in
  (* some window of 4 consecutive edges holds ~90% of the mass *)
  let best = ref 0 in
  for s = 0 to n - 1 do
    let sum = ref 0 in
    for j = 0 to 3 do
      sum := !sum + c.((s + j) mod n)
    done;
    if !sum > !best then best := !sum
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hot window holds %d/10000" !best)
    true (!best > 8_000)

let test_rotating_covers () =
  let n = 32 in
  let t = arr (W.rotating ~n ~steps:8_000 ~arc:2 ~heat:1.0 ~period:4 (Rng.create 3)) in
  let c = counts ~n t in
  (* a full revolution touches every edge *)
  Alcotest.(check bool) "every edge requested" true (Array.for_all (fun v -> v > 0) c)

let test_zipf_skewed () =
  let n = 64 in
  let t = arr (W.zipf ~n ~steps:20_000 ~exponent:1.2 (Rng.create 4)) in
  let c = counts ~n t in
  Array.sort compare c;
  let top = c.(n - 1) and median = c.(n / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "top %d vs median %d" top median)
    true
    (top > 4 * (median + 1))

let test_piecewise_phases () =
  let n = 64 in
  let t = arr (W.piecewise_static ~n ~steps:4_000 ~period:1_000 ~hot_edges:2 (Rng.create 5)) in
  (* within one phase at most 2 distinct edges are requested *)
  let distinct lo hi =
    let seen = Hashtbl.create 8 in
    for i = lo to hi do
      Hashtbl.replace seen t.(i) ()
    done;
    Hashtbl.length seen
  in
  Alcotest.(check bool) "phase 1 narrow" true (distinct 0 999 <= 2);
  Alcotest.(check bool) "phase 2 narrow" true (distinct 1_000 1_999 <= 2)

let test_partitionable_respects_partition () =
  let n = 64 and ell = 4 in
  let k = n / ell in
  let offset = 7 in
  let t =
    arr (W.partitionable ~n ~ell ~steps:5_000 ~offset (Rng.create 6))
  in
  (* the hidden cut edges offset - 1 + b*k are never requested *)
  Array.iter
    (fun e ->
      let rel = ((e - offset) mod n + n) mod n in
      Alcotest.(check bool)
        (Printf.sprintf "edge %d inside a hidden block" e)
        true
        (rel mod k <> k - 1))
    t;
  Alcotest.(check bool) "in range" true (in_range ~n t)

let test_partitionable_validation () =
  Alcotest.check_raises "ell must divide n"
    (Invalid_argument "Workloads.partitionable: ell must divide n") (fun () ->
      ignore (W.partitionable ~n:10 ~ell:3 ~steps:10 (Rng.create 0)))

let test_cut_chaser_chases () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let a = Assignment.create inst in
  let t = W.adversary_cut_chaser ~n:32 in
  for step = 0 to 50 do
    let e = Trace.next t step a in
    Alcotest.(check bool)
      (Printf.sprintf "step %d requests a cut edge" step)
      true
      (Assignment.cuts_edge a e)
  done

let test_cut_chaser_no_cuts () =
  (* with everything on one server there is no cut; the chaser must still
     return a valid edge *)
  let inst = Instance.make ~n:8 ~ell:2 ~k:8 () in
  let a = Assignment.create inst in
  let t = W.adversary_cut_chaser ~n:8 in
  let e = Trace.next t 0 a in
  Alcotest.(check bool) "valid edge" true (e >= 0 && e < 8)

let test_validation () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Workloads: n must be > 1") (fun () ->
      ignore (W.uniform ~n:1 ~steps:10 (Rng.create 0)));
  Alcotest.check_raises "bad zipf"
    (Invalid_argument "Workloads.zipf: exponent must be positive") (fun () ->
      ignore (W.zipf ~n:8 ~steps:10 ~exponent:0.0 (Rng.create 0)))

let test_seeded_reproducibility () =
  let a = arr (W.uniform ~n:32 ~steps:500 (Rng.create 42)) in
  let b = arr (W.uniform ~n:32 ~steps:500 (Rng.create 42)) in
  Alcotest.(check (array int)) "same seed, same trace" a b

(* A whole trace file in either format, read through [Source] as [rbgp
   sim --trace-file] reads it. *)
let read_trace ~n path =
  let src = Rbgp_serve.Source.open_file ~n path in
  Fun.protect
    ~finally:(fun () -> Rbgp_serve.Source.close src)
    (fun () ->
      let block = Array.make 4096 0 in
      let rec go acc =
        match
          Rbgp_serve.Source.next_batch src block ~limit:(Array.length block)
        with
        | 0 -> Array.concat (List.rev acc)
        | got -> go (Array.sub block 0 got :: acc)
      in
      go [])

let test_trace_io_roundtrip () =
  let path = Filename.temp_file "rbgp_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = arr (W.uniform ~n:32 ~steps:500 (Rng.create 9)) in
      Rbgp_workloads.Trace_io.save ~path ~comment:"roundtrip test" t;
      let t' = read_trace ~n:32 path in
      Alcotest.(check (array int)) "roundtrip" t t')

let test_trace_io_validation () =
  let path = Filename.temp_file "rbgp_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# header\n3\n99\n";
      close_out oc;
      Alcotest.(check bool) "out-of-range rejected" true
        (try
           ignore (read_trace ~n:32 path);
           false
         with Invalid_argument _ -> true);
      let oc = open_out path in
      output_string oc "3\nnot-a-number\n";
      close_out oc;
      Alcotest.(check bool) "garbage rejected" true
        (try
           ignore (read_trace ~n:32 path);
           false
         with Invalid_argument _ -> true))

let () =
  Alcotest.run "rbgp_workloads"
    [
      ( "generators",
        [
          Alcotest.test_case "ranges and lengths" `Quick test_ranges;
          Alcotest.test_case "allreduce deterministic" `Quick
            test_allreduce_deterministic;
          Alcotest.test_case "hotspot concentrated" `Quick test_hotspot_concentrated;
          Alcotest.test_case "rotating covers ring" `Quick test_rotating_covers;
          Alcotest.test_case "zipf skewed" `Quick test_zipf_skewed;
          Alcotest.test_case "piecewise phases" `Quick test_piecewise_phases;
          Alcotest.test_case "seeded reproducibility" `Quick
            test_seeded_reproducibility;
          Alcotest.test_case "partitionable respects hidden partition" `Quick
            test_partitionable_respects_partition;
          Alcotest.test_case "partitionable validation" `Quick
            test_partitionable_validation;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "chases cuts" `Quick test_cut_chaser_chases;
          Alcotest.test_case "no cuts fallback" `Quick test_cut_chaser_no_cuts;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "validation" `Quick test_trace_io_validation;
        ] );
    ]
