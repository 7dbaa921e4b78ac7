(* Crash-matrix: randomized (algorithm, kill point, corruption) cells,
   every fault applied from outside the engine.

   Each cell serves a trace three ways:

   1. uninterrupted — the reference decision stream and final checkpoint;
   2. crashed — the same run with rolling checkpoints, stopped at the
      kill point and dropped without a final checkpoint (what a SIGKILL
      leaves behind), then optionally with its on-disk generations
      corrupted (torn tail, flipped bit, all truncated);
   3. recovered — restore the newest generation that verifies (fresh
      start when none does) and serve the remainder.

   The recovered run must restart at the newest generation that
   verifies, its decision stream, overlaid over what the crashed attempt
   already emitted, must equal the reference stream key for key, and its
   final checkpoint must be byte-identical to the uninterrupted one.
   This is the paper-level determinism contract (engine state is a
   function of (alg, epsilon, seed, instance, requests)) extended across
   process death.

   The second half pins down solver-budget degradation with a fake clock
   passed through the engine's one clock seam: a slow request produces
   an exact frozen window (seen in the decisions and the metrics),
   degraded runs are reproducible, a checkpoint taken mid-degradation
   resumes into the same stream, and the quiet block path degrades on a
   slow block and serves its cooloff per request. *)

module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Registry = Rbgp_serve.Registry
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

(* A fake clock through the engine's seam: it reads [time p] ns once the
   engine has served [p] requests, so request [i] takes
   [time (i + 1) - time i] ns and a quiet block the difference across
   it, however often the engine reads its clock. *)
let with_clock time make =
  let engine = ref None in
  let clock () =
    match !engine with Some e -> time (Engine.pos e) | None -> time 0
  in
  let e = make ~clock in
  engine := Some e;
  e

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
      (* 2: crashed attempt with rolling checkpoints: serve up to the
         kill point, then drop the engine with no final checkpoint *)
      let overlay = Array.make steps "" in
      let first = Engine.create ~alg ~seed inst in
      let written = ref [] in
      for i = 0 to kill - 1 do
        overlay.(i) <- decision_key (Engine.ingest first trace.(i));
        if Engine.pos first mod ckpt_every = 0 then begin
          Ckpt.write_rolling ~path ~keep (Engine.checkpoint first);
          written := Engine.pos first :: !written
        end
      done;
      (* the position recovery must restart from: the newest generation
         on disk, the one below it when the newest was torn or flipped,
         none when every generation was truncated *)
      let on_disk = List.filteri (fun g _ -> g < keep) !written in
      let expect_start =
        match (corr, on_disk) with
        | 0, p :: _ -> p
        | (1 | 2), _ :: p :: _ -> p
        | _ -> 0
      in
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
      start = expect_start && overlay = ref_keys
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
   must fall back to the one below it (request 77, with a checkpoint
   every 11 requests), and assert it still converges to the reference. *)
let test_fallback_past_torn_generation () =
  let ok =
    run_cell (0 (* onl-dynamic or first spec *), 5, 120, 97, 11, 3, 1)
  in
  Alcotest.(check bool) "recovered through the torn generation" true ok

(* --- solver-budget degradation ----------------------------------------- *)

(* Request 20 takes 100 s against a 10 s budget, every other request no
   time at all: the frozen window is exact whatever the host does. *)
let stall_at_20 p = if p > 20 then 100_000_000_000 else 0
let budget_ns = 10_000_000_000

let degraded_engine ?(cooloff = 40) inst =
  let e =
    with_clock stall_at_20 (fun ~clock ->
        Engine.create ~clock ~alg:"onl-dynamic" ~seed:5 inst)
  in
  Engine.set_solver_budget e ~budget_ns ~cooloff;
  e

let degraded_run ~steps () =
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:11 in
  let e = degraded_engine inst in
  let keys = Array.map (fun q -> decision_key (Engine.ingest e q)) trace in
  (keys, e)

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
  let e = degraded_engine ~cooloff inst in
  let m = Engine.metrics e in
  let keys =
    Array.mapi
      (fun i q ->
        let d = Engine.ingest e q in
        (* the stall hits request 20, so 21 .. 60 ride the never-move
           path *)
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
  let e = degraded_engine inst in
  for i = 0 to cut - 1 do
    ignore (Engine.ingest e trace.(i))
  done;
  let mid = Ckpt.to_string (Engine.checkpoint e) in
  let tail_ref =
    Array.init (steps - cut) (fun j ->
        decision_key (Engine.ingest e trace.(cut + j)))
  in
  let final_ref = Ckpt.to_string (Engine.checkpoint e) in
  let ckpt = Ckpt.of_string mid in
  Alcotest.(check bool) "snapshot taken mid-degradation" true
    (ckpt.Ckpt.degraded_left > 0);
  (* resume on the real clock: the stall came before the cut, and its
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

(* The quiet block path under the same clock seam.  Blocks are 16
   requests; the block [32, 48) takes 1,600 s, a mean of 100 s per
   request against the 10 s budget, so the cooloff of 40 starts at
   request 48.  The three blocks after it are served per request: 48 ..
   87 frozen, 88 .. 95 back on the solver.  A per-request twin, whose
   request 47 carries the whole 1,600 s, freezes the same 40 requests,
   so the two engines checkpoint the same bytes at every block boundary;
   its decisions show that no frozen request migrates. *)
let test_quiet_blocks_degrade () =
  let n = 32 and ell = 4 and steps = 208 and b = 16 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:11 in
  let slow_block p = if p >= 48 then 1_600_000_000_000 else 0 in
  let engine () =
    let e =
      with_clock slow_block (fun ~clock ->
          Engine.create ~clock ~alg:"onl-dynamic" ~seed:5 inst)
    in
    Engine.set_solver_budget e ~budget_ns ~cooloff:40;
    e
  in
  let quiet = engine () and twin = engine () in
  let m = Engine.metrics quiet in
  let twin_keys = Array.map (Engine.ingest twin) trace in
  let twin_ckpt = Array.make ((steps / b) + 1) "" in
  let replay = engine () in
  twin_ckpt.(0) <- Ckpt.to_string (Engine.checkpoint replay);
  for j = 0 to (steps / b) - 1 do
    Array.iter
      (fun q -> ignore (Engine.ingest replay q))
      (Array.sub trace (j * b) b);
    twin_ckpt.(j + 1) <- Ckpt.to_string (Engine.checkpoint replay)
  done;
  let mig () = (Engine.result quiet).Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.mig in
  let mid = ref "" and mig_at_48 = ref 0 in
  for j = 0 to (steps / b) - 1 do
    let at = (j + 1) * b in
    Engine.ingest_batch_quiet quiet (Array.sub trace (j * b) b);
    Alcotest.(check string)
      (Printf.sprintf "checkpoint after request %d == per-request twin" at)
      twin_ckpt.(j + 1)
      (Ckpt.to_string (Engine.checkpoint quiet));
    Alcotest.(check bool)
      (Printf.sprintf "degrading after block ending at %d" at)
      (at >= 48 && at < 88) (Engine.degrading quiet);
    Alcotest.(check int)
      (Printf.sprintf "frozen requests after block ending at %d" at)
      (Stdlib.max 0 (Stdlib.min at 88 - 48))
      (Metrics.degraded m);
    Alcotest.(check int)
      (Printf.sprintf "recoveries after block ending at %d" at)
      (if at >= 88 then 1 else 0)
      (Metrics.recovered m);
    if at = 48 then mig_at_48 := mig ();
    if at = 80 then
      Alcotest.(check int) "no migration in the two frozen blocks" !mig_at_48
        (mig ());
    if at = 64 then mid := Ckpt.to_string (Engine.checkpoint quiet)
  done;
  for i = 48 to 87 do
    Alcotest.(check int)
      (Printf.sprintf "the twin's request %d is frozen" i)
      0 twin_keys.(i).Engine.moved
  done;
  Alcotest.(check bool) "the solver migrates again after the cooloff" true
    (mig () > !mig_at_48);
  (* a checkpoint between blocks mid-cooloff resumes to the same bytes *)
  let ckpt = Ckpt.of_string !mid in
  Alcotest.(check int) "the mid-cooloff checkpoint keeps the rest of it" 24
    ckpt.Ckpt.degraded_left;
  let resumed = Engine.resume ckpt in
  Alcotest.(check string) "resumed engine re-checkpoints the same bytes" !mid
    (Ckpt.to_string (Engine.checkpoint resumed));
  for j = 64 / b to (steps / b) - 1 do
    Engine.ingest_batch_quiet resumed (Array.sub trace (j * b) b)
  done;
  Alcotest.(check string) "resumed quiet run ends on the same checkpoint"
    (Ckpt.to_string (Engine.checkpoint quiet))
    (Ckpt.to_string (Engine.checkpoint resumed))

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
          Alcotest.test_case "quiet blocks degrade and serve the cooloff \
                              per request" `Quick test_quiet_blocks_degrade;
        ] );
    ]
