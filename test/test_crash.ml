(* Crash-matrix: randomized (algorithm, kill point, corruption) cells.

   Each cell serves a trace three ways:

   1. uninterrupted — the reference decision stream and final checkpoint;
   2. crashed — same run with [crash@k] armed and rolling checkpoints,
      killed mid-stream, optionally with the on-disk generations
      corrupted afterwards (torn tail, flipped bit, all truncated);
   3. recovered — restore the newest generation that verifies (fresh
      start when none does) and serve the remainder.

   The recovered decision stream, overlaid over what the crashed attempt
   already emitted, must equal the reference stream key for key, and the
   recovered run's final checkpoint must be byte-identical to the
   uninterrupted one.  This is the paper-level determinism contract
   (engine state is a function of (alg, epsilon, seed, instance,
   requests)) extended across process death.

   The second half pins down solver-budget degradation: injected stalls
   produce an exact frozen window (seen in the decisions and the
   metrics), degraded runs are reproducible, and a checkpoint taken
   mid-degradation resumes into the same stream. *)

module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Registry = Rbgp_serve.Registry
module Fault = Rbgp_serve.Fault
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint
module Metrics = Rbgp_serve.Metrics

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

(* Every decision field except the wall-clock latency. *)
let decision_key (d : Engine.decision) =
  Printf.sprintf "%d|%d|%d|%d|%d|%d|%d" d.Engine.step d.Engine.edge
    d.Engine.comm d.Engine.moved d.Engine.cum_comm d.Engine.cum_mig
    d.Engine.max_load

let with_tempdir f =
  let dir = Filename.temp_file "rbgp_crash" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry ->
          try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let munge path f =
  if Sys.file_exists path then begin
    let raw = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (f raw))
  end

let tear raw = String.sub raw 0 (String.length raw / 2)

let flip_bit raw =
  let b = Bytes.of_string raw in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
  Bytes.to_string b

(* --- the crash matrix -------------------------------------------------- *)

let run_cell (alg_idx, wseed, steps, kill, ckpt_every, keep, corr) =
  let specs = Registry.all in
  let alg = (List.nth specs (alg_idx mod List.length specs)).Registry.name in
  let n = 32 and ell = 4 and seed = 23 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:wseed in
  (* 1: uninterrupted reference *)
  let reference = Engine.create ~alg ~seed inst in
  let ref_keys =
    Array.map (fun q -> decision_key (Engine.ingest reference q)) trace
  in
  let ref_ckpt = Ckpt.to_string (Engine.checkpoint reference) in
  with_tempdir (fun dir ->
      let path = Filename.concat dir "run.ckpt" in
      (* 2: crashed attempt with rolling checkpoints *)
      let overlay = Array.make steps "" in
      Fun.protect ~finally:Fault.disable (fun () ->
          Fault.configure (Printf.sprintf "crash@%d" kill);
          let first = Engine.create ~alg ~seed inst in
          try
            Array.iteri
              (fun i q ->
                overlay.(i) <- decision_key (Engine.ingest first q);
                if Engine.pos first mod ckpt_every = 0 then
                  Ckpt.write_rolling ~path ~keep (Engine.checkpoint first))
              trace
          with Fault.Injected_crash _ -> ());
      (* optional post-mortem corruption of the on-disk generations *)
      (match corr with
      | 0 -> ()
      | 1 -> munge path tear
      | 2 -> munge path flip_bit
      | _ ->
          for g = 0 to keep - 1 do
            munge
              (if g = 0 then path else Printf.sprintf "%s.%d" path g)
              (fun raw -> String.sub raw 0 (Stdlib.min 5 (String.length raw)))
          done);
      (* 3: recover and serve the remainder *)
      let resumed =
        match Ckpt.read_latest ~path () with
        | r -> Engine.resume r.Ckpt.ckpt
        | exception (Invalid_argument _ | Failure _ | Sys_error _) ->
            Engine.create ~alg ~seed inst
      in
      let start = Engine.pos resumed in
      for i = start to steps - 1 do
        overlay.(i) <- decision_key (Engine.ingest resumed trace.(i))
      done;
      overlay = ref_keys
      && String.equal ref_ckpt (Ckpt.to_string (Engine.checkpoint resumed)))

let qcheck_crash_matrix =
  let gen =
    QCheck2.Gen.(
      let* alg_idx = int_bound 100 in
      let* wseed = int_range 0 999 in
      let* steps = int_range 40 160 in
      let* kill = int_range 1 (steps - 1) in
      let* ckpt_every = int_range 7 50 in
      let* keep = int_range 1 3 in
      let* corr = int_bound 3 in
      return (alg_idx, wseed, steps, kill, ckpt_every, keep, corr))
  in
  let print (alg_idx, wseed, steps, kill, ckpt_every, keep, corr) =
    Printf.sprintf
      "alg_idx=%d wseed=%d steps=%d kill=%d ckpt_every=%d keep=%d corr=%d"
      alg_idx wseed steps kill ckpt_every keep corr
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~print
       ~name:"qcheck: crash matrix — recovered == uninterrupted, byte for byte"
       gen run_cell)

(* A targeted always-run cell: tear the newest generation so recovery
   must fall back, and assert it still converges to the reference. *)
let test_fallback_past_torn_generation () =
  let ok =
    run_cell (0 (* onl-dynamic or first spec *), 5, 120, 97, 11, 3, 1)
  in
  Alcotest.(check bool) "recovered through the torn generation" true ok

(* --- solver-budget degradation ----------------------------------------- *)

(* Virtual stall: 100s reported against a 10s budget — fires regardless
   of real scheduling noise, and real latency can never reach the budget
   on its own, so the spans are exact. *)
let stall_spec = "solver-stall@20:100000000000"
let budget_ns = 10_000_000_000

let degraded_run ?(cooloff = 40) ~steps () =
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:11 in
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure stall_spec;
      let e = Engine.create ~alg:"onl-dynamic" ~seed:5 inst in
      Engine.set_solver_budget e ~budget_ns ~cooloff;
      let keys =
        Array.map (fun q -> decision_key (Engine.ingest e q)) trace
      in
      (keys, e))

(* The frozen window is pinned from the outside: the decision stream and
   the per-request Metrics counters, against a stall-free twin. *)
let test_degradation_spans_exact () =
  let steps = 100 and cooloff = 40 in
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:11 in
  let plain = Engine.create ~alg:"onl-dynamic" ~seed:5 inst in
  let plain_keys =
    Array.map (fun q -> decision_key (Engine.ingest plain q)) trace
  in
  let keys, e =
    Fun.protect ~finally:Fault.disable (fun () ->
        Fault.configure stall_spec;
        let e = Engine.create ~alg:"onl-dynamic" ~seed:5 inst in
        Engine.set_solver_budget e ~budget_ns ~cooloff;
        let m = Engine.metrics e in
        let keys =
          Array.mapi
            (fun i q ->
              let d = Engine.ingest e q in
              (* the stall hits request 20, so 21 .. 60 ride the
                 never-move path *)
              Alcotest.(check int)
                (Printf.sprintf "frozen requests after request %d" i)
                (Stdlib.max 0 (Stdlib.min i 60 - 20))
                (Metrics.degraded m);
              Alcotest.(check bool)
                (Printf.sprintf "degrading after request %d" i)
                (i >= 20 && i < 60) (Engine.degrading e);
              d)
            trace
        in
        (keys, e))
  in
  Alcotest.(check int) "all requests served" steps (Array.length keys);
  (* up to the stall the stream is the stall-free one *)
  for i = 0 to 20 do
    Alcotest.(check string)
      (Printf.sprintf "decision %d before the window" i)
      plain_keys.(i) (decision_key keys.(i))
  done;
  (* frozen requests still pay communication but never migrate *)
  for i = 21 to 60 do
    Alcotest.(check int)
      (Printf.sprintf "no migration at frozen request %d" i)
      0 keys.(i).Engine.moved
  done;
  Alcotest.(check bool) "re-promoted by the end" false (Engine.degrading e);
  let m = Engine.metrics e in
  Alcotest.(check int) "metrics count the frozen requests" cooloff
    (Metrics.degraded m);
  Alcotest.(check int) "one recovery" 1 (Metrics.recovered m)

let test_degraded_run_deterministic () =
  let a_keys, a = degraded_run ~steps:120 () in
  let b_keys, b = degraded_run ~steps:120 () in
  Alcotest.(check bool) "decision streams identical" true (a_keys = b_keys);
  Alcotest.(check string) "checkpoints byte-identical"
    (Ckpt.to_string (Engine.checkpoint a))
    (Ckpt.to_string (Engine.checkpoint b))

let test_mid_degradation_checkpoint_resume () =
  let n = 32 and ell = 4 and steps = 120 and cut = 30 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:11 in
  let tail_ref, mid, final_ref =
    Fun.protect ~finally:Fault.disable (fun () ->
        Fault.configure stall_spec;
        let e = Engine.create ~alg:"onl-dynamic" ~seed:5 inst in
        Engine.set_solver_budget e ~budget_ns ~cooloff:40;
        for i = 0 to cut - 1 do
          ignore (Engine.ingest e trace.(i))
        done;
        let mid = Ckpt.to_string (Engine.checkpoint e) in
        let tail =
          Array.init (steps - cut) (fun j ->
              decision_key (Engine.ingest e trace.(cut + j)))
        in
        (tail, mid, Ckpt.to_string (Engine.checkpoint e)))
  in
  let ckpt = Ckpt.of_string mid in
  Alcotest.(check bool) "snapshot taken mid-degradation" true
    (ckpt.Ckpt.degraded_left > 0);
  (* resume with no fault plan: the stall fired before the cut, and its
     remaining cooloff must be honoured from the snapshot alone *)
  let resumed = Engine.resume ckpt in
  Alcotest.(check bool) "resumed engine is still degrading" true
    (Engine.degrading resumed);
  let tail =
    Array.init (steps - cut) (fun j ->
        decision_key (Engine.ingest resumed trace.(cut + j)))
  in
  Alcotest.(check bool) "tail decisions identical" true (tail = tail_ref);
  Alcotest.(check string) "final checkpoints byte-identical" final_ref
    (Ckpt.to_string (Engine.checkpoint resumed))

(* Batched ingestion under an armed plan must match per-request serving:
   the engine falls back to per-request stepping around pending faults
   and degradation so the kill/stall lands on the exact same index. *)
let test_batched_matches_per_request_under_faults () =
  let n = 32 and ell = 4 and steps = 120 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:11 in
  let ref_keys, ref_final =
    let keys, e = degraded_run ~steps () in
    (keys, Ckpt.to_string (Engine.checkpoint e))
  in
  let batched =
    Fun.protect ~finally:Fault.disable (fun () ->
        Fault.configure stall_spec;
        let e = Engine.create ~alg:"onl-dynamic" ~seed:5 inst in
        Engine.set_solver_budget e ~budget_ns ~cooloff:40;
        let rng = Rng.create 77 in
        let keys = ref [] in
        let at = ref 0 in
        while !at < steps do
          let len = Stdlib.min (steps - !at) (1 + Rng.int rng 16) in
          let ds = Array.map (Engine.ingest e) (Array.sub trace !at len) in
          Array.iter (fun d -> keys := decision_key d :: !keys) ds;
          at := !at + len
        done;
        (Array.of_list (List.rev !keys), Ckpt.to_string (Engine.checkpoint e)))
  in
  Alcotest.(check bool) "decision streams identical" true
    (fst batched = ref_keys);
  Alcotest.(check string) "checkpoints byte-identical" ref_final (snd batched)

let () =
  Alcotest.run "crash"
    [
      ( "matrix",
        [
          qcheck_crash_matrix;
          Alcotest.test_case "fallback past a torn generation" `Quick
            test_fallback_past_torn_generation;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "stall produces exact frozen spans" `Quick
            test_degradation_spans_exact;
          Alcotest.test_case "degraded runs are reproducible" `Quick
            test_degraded_run_deterministic;
          Alcotest.test_case "mid-degradation checkpoint resumes exactly"
            `Quick test_mid_degradation_checkpoint_resume;
          Alcotest.test_case "batched == per-request under faults" `Quick
            test_batched_matches_per_request_under_faults;
        ] );
    ]
