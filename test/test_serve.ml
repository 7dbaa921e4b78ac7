(* Tests for the streaming partition service (lib/serve) and the trace
   codecs it feeds on.

   The contracts under test:
   - the incremental engine bills exactly what the batch simulator bills
     on the same request sequence (every algorithm);
   - checkpoint ⇒ resume is byte-identical to an uninterrupted run —
     decisions, costs, max load, violations, final assignment and final
     checkpoint bytes — for every algorithm in the serving registry, with
     the O(state) snapshot restore checked against the prefix-replay
     oracle, and the verification catches tampered snapshots;
   - the framed binary trace format round-trips with the text format and
     detects torn frames;
   - the streaming text reader matches the materializing loader and names
     the file in its errors. *)

module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Simulator = Rbgp_ring.Simulator
module Assignment = Rbgp_ring.Assignment
module Online = Rbgp_ring.Online
module Trace = Rbgp_ring.Trace
module Cost = Rbgp_ring.Cost
module Workloads = Rbgp_workloads.Workloads
module Trace_io = Rbgp_workloads.Trace_io
module Trace_codec = Rbgp_workloads.Trace_codec
module Registry = Rbgp_serve.Registry
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint
module Metrics = Rbgp_serve.Metrics
module Source = Rbgp_serve.Source

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

type outcome = {
  comm : int;
  mig : int;
  steps : int;
  max_load : int;
  violations : int;
  assignment : int array;
}

let outcome_of engine =
  let r = Engine.result engine in
  {
    comm = r.Simulator.cost.Cost.comm;
    mig = r.Simulator.cost.Cost.mig;
    steps = r.Simulator.steps;
    max_load = r.Simulator.max_load;
    violations = r.Simulator.capacity_violations;
    assignment = Engine.assignment engine;
  }

let check_outcome msg expected got =
  Alcotest.(check int) (msg ^ ": comm") expected.comm got.comm;
  Alcotest.(check int) (msg ^ ": mig") expected.mig got.mig;
  Alcotest.(check int) (msg ^ ": steps") expected.steps got.steps;
  Alcotest.(check int) (msg ^ ": max_load") expected.max_load got.max_load;
  Alcotest.(check int) (msg ^ ": violations") expected.violations got.violations;
  Alcotest.(check (array int)) (msg ^ ": assignment") expected.assignment
    got.assignment

(* --- engine vs batch simulator -------------------------------------- *)

let test_engine_matches_simulator () =
  let n = 48 and ell = 4 and steps = 800 and seed = 11 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:5 in
  List.iter
    (fun (spec : Registry.spec) ->
      let batch_alg = spec.Registry.build ~epsilon:0.5 ~seed inst in
      let batch =
        Simulator.run inst batch_alg (Trace.fixed trace) ~steps
      in
      let engine = Engine.create ~alg:spec.Registry.name ~seed inst in
      Array.iter (fun e -> ignore (Engine.ingest engine e)) trace;
      let got = outcome_of engine in
      check_outcome
        (spec.Registry.name ^ " engine == simulator")
        {
          comm = batch.Simulator.cost.Cost.comm;
          mig = batch.Simulator.cost.Cost.mig;
          steps = batch.Simulator.steps;
          max_load = batch.Simulator.max_load;
          violations = batch.Simulator.capacity_violations;
          assignment =
            Rbgp_ring.Assignment.to_array
              (batch_alg.Rbgp_ring.Online.assignment ());
        }
        got)
    Registry.all

let test_engine_decisions_cumulative () =
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:500 ~seed:3 in
  let engine = Engine.create ~alg:"onl-static" ~seed:17 inst in
  let cum_comm = ref 0 and cum_mig = ref 0 in
  Array.iteri
    (fun i e ->
      let d = Engine.ingest engine e in
      cum_comm := !cum_comm + d.Engine.comm;
      cum_mig := !cum_mig + d.Engine.moved;
      Alcotest.(check int) "step index" i d.Engine.step;
      Alcotest.(check int) "cum comm" !cum_comm d.Engine.cum_comm;
      Alcotest.(check int) "cum mig" !cum_mig d.Engine.cum_mig)
    trace

(* --- pinned output digests ------------------------------------------- *)

(* CRC-32 of the decision stream (latency zeroed: it is wall clock) and of
   the final checkpoint's position, costs and assignment, for each MTS
   solver inside the Section-3 reduction, on one seeded rotating trace.
   The decision digests were taken from the cost-vector form of the
   solvers (a dense task vector per request); the indicator-native step
   must reproduce every probability, rng draw and decision of that form
   bit for bit.  The checkpoint digests were taken from the
   prefix-replay checkpoints that preceded the O(state) format, over the
   fields both formats share.  Rows are (alg, (n, ell, requests, engine
   seed), digests).  The last row is the shape perfbench's
   serve-onl-dynamic serves: each interval's smooth-min solver runs on a
   line of 186 or 187 states, and about one request in a hundred lands
   on a solver's current state; its digests were taken from the
   smooth-min step that built both distributions on every request.  The
   onl-static rows pin the Section-4 algorithm at the small shape and at
   a long-interval shape (k = 128: intervals grow to 129 vertices).
   Their digests were taken when every request rebalanced and rewrote
   the whole assignment, and every interval recomputed its distribution
   from the counts. *)
let pinned_digests =
  let small = (512, 8, 20_000, 42) in
  [
    ("onl-dynamic", small, (0xcd2e073e, 0x66617321));
    ("dyn/wfa", small, (0xdeed93c1, 0x258cc38e));
    ("dyn/hst-mw", small, (0xe4c3719f, 0x3aec856e));
    ("dyn/marking", small, (0xcea04350, 0x81a93dcf));
    ("onl-dynamic", (4096, 32, 100_000, 7919), (0x9f7ab12a, 0x382ef724));
    ("onl-static", small, (0xcdd2f60e, 0xbbf33d19));
    ("onl-static", (4096, 32, 20_000, 7919), (0xfc9db79a, 0x089bc83c));
  ]

(* pos, comm, mig, max_load, violations and assignment, Binc-framed *)
let shared_fields_crc (c : Ckpt.t) =
  let buf = Buffer.create 64 in
  List.iter (Rbgp_util.Binc.add_varint buf)
    [ c.Ckpt.pos; c.Ckpt.comm; c.Ckpt.mig; c.Ckpt.max_load; c.Ckpt.violations ];
  Rbgp_util.Binc.add_int_array buf c.Ckpt.assignment;
  Rbgp_util.Crc32.string (Buffer.contents buf)

let output_digests ~alg (n, ell, steps, seed) =
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:7919 in
  let engine = Engine.create ~alg ~seed inst in
  let crc = ref 0 in
  Array.iter
    (fun e ->
      let d = Engine.ingest engine e in
      let line = Engine.decision_to_json { d with Engine.latency_ns = 0 } in
      crc := Rbgp_util.Crc32.update !crc line ~pos:0 ~len:(String.length line))
    trace;
  (!crc, shared_fields_crc (Engine.checkpoint engine))

let test_pinned_digests () =
  List.iter
    (fun (alg, ((n, _, _, _) as shape), (want_decisions, want_ckpt)) ->
      let got_decisions, got_ckpt = output_digests ~alg shape in
      let name = Printf.sprintf "%s n=%d" alg n in
      Alcotest.(check string)
        (name ^ ": decision stream")
        (Printf.sprintf "%08x" want_decisions)
        (Printf.sprintf "%08x" got_decisions);
      Alcotest.(check string)
        (name ^ ": final checkpoint")
        (Printf.sprintf "%08x" want_ckpt)
        (Printf.sprintf "%08x" got_ckpt))
    pinned_digests

(* CRC-32 of every registry algorithm's snapshot blob
   ([Checkpoint.alg_state]) after one seeded rotating trace: n = 128,
   ell = 8, 5,000 requests, engine seed 42, trace seed 7919.  The values
   were taken when each algorithm still wrote its own snapshot
   envelope.  Checkpoint files store these bytes, so a change to any of
   them would stop existing checkpoints from restoring. *)
let pinned_alg_states =
  [
    ("onl-dynamic", 0xce0306e8);
    ("onl-static", 0xab39c090);
    ("dyn/wfa", 0xf621e6d7);
    ("dyn/hst-mw", 0xad0b8853);
    ("dyn/marking", 0x7217a992);
    ("never-move", 0x309eac90);
    ("greedy-colocate", 0xc18b11e8);
    ("counter-threshold", 0xf9d211ab);
    ("component-learning", 0x28e086c3);
  ]

let test_pinned_alg_states () =
  let n = 128 and ell = 8 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:5_000 ~seed:7919 in
  Alcotest.(check (list string))
    "every registry algorithm is pinned" Registry.names
    (List.map fst pinned_alg_states);
  List.iter
    (fun (alg, want) ->
      let e = Engine.create ~alg ~seed:42 inst in
      Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
      let state = Option.get (Engine.checkpoint e).Ckpt.alg_state in
      Alcotest.(check string)
        (alg ^ ": alg_state CRC-32")
        (Printf.sprintf "%08x" want)
        (Printf.sprintf "%08x" (Rbgp_util.Crc32.string state)))
    pinned_alg_states

(* The JSONL record format the serve stream has always had, as a Printf
   format: the reference for Engine.decision_to_json's byte writer. *)
let decision_to_json_printf (d : Engine.decision) =
  Printf.sprintf
    "{\"type\":\"decision\",\"step\":%d,\"edge\":%d,\"comm\":%d,\"mig\":%d,\
     \"cum_comm\":%d,\"cum_mig\":%d,\"max_load\":%d,\"latency_ns\":%d}"
    d.step d.edge d.comm d.moved d.cum_comm d.cum_mig d.max_load d.latency_ns

(* 10^k - 1, 10^k and their negations for k = 0..18: where the writer's
   width comparisons and its two-digits-per-division loop change
   regime. *)
let decimal_boundaries =
  List.concat_map
    (fun k ->
      let p = int_of_float (10.0 ** float_of_int k) in
      [ p - 1; p; 1 - p; -p ])
    (List.init 19 Fun.id)

let qcheck_decision_to_json =
  let field =
    QCheck2.Gen.(
      oneof
        [
          return 0;
          return max_int;
          return min_int;
          int_range (-1) 1;
          int_range (-1_000_000) 1_000_000;
          oneofl decimal_boundaries;
          int;
        ])
  in
  let gen =
    QCheck2.Gen.(
      pair (tup4 field field field field) (tup4 field field field field)
      >|= fun ((step, edge, comm, moved), (cum_comm, cum_mig, max_load, latency_ns)) ->
      {
        Engine.step;
        edge;
        comm;
        moved;
        cum_comm;
        cum_mig;
        max_load;
        latency_ns;
      })
  in
  qtest ~count:2000 "decision_to_json == Printf format"
    ~print:decision_to_json_printf gen (fun d ->
      Engine.decision_to_json d = decision_to_json_printf d)

(* The scalar stepper API bills exactly what the pair-returning one
   does: two steppers over twin algorithms, one driven by [step], the
   other by [advance], whose charges are the growth of its cumulative
   costs.  Every seventh request goes through [advance_frozen] on both:
   it charges communication exactly when the edge is cut, moves
   nothing and leaves the load maximum where it was. *)
let test_advance_matches_step () =
  let n = 64 and ell = 4 and seed = 5 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:2_000 ~seed:9 in
  let build () =
    let online =
      (Registry.find "onl-dynamic").Registry.build ~epsilon:0.5 ~seed inst
    in
    (online, Simulator.stepper inst online)
  in
  let _, paired = build () and online, scalar = build () in
  let cost = (Simulator.stepper_result scalar).Simulator.cost in
  let frozen_step st e =
    let r = Simulator.stepper_result st in
    let comm0 = r.Simulator.cost.Cost.comm and mig0 = r.Simulator.cost.Cost.mig in
    let max0 = r.Simulator.max_load in
    Simulator.advance_frozen st e;
    let r = Simulator.stepper_result st in
    [ r.Simulator.cost.Cost.comm - comm0; r.Simulator.cost.Cost.mig - mig0;
      r.Simulator.max_load - max0 ]
  in
  let frozen_cuts = ref 0 in
  Array.iteri
    (fun i e ->
      if i mod 7 = 3 then begin
        let cut =
          Rbgp_ring.Assignment.cuts_edge
            (online.Rbgp_ring.Online.assignment ()) e
        in
        if cut then incr frozen_cuts;
        Alcotest.(check (list int))
          (Printf.sprintf "request %d: frozen comm, moved, max load growth" i)
          [ Bool.to_int cut; 0; 0 ] (frozen_step scalar e);
        Simulator.advance_frozen paired e
      end
      else begin
        let comm, moved = Simulator.step paired e in
        let comm0 = cost.Cost.comm and mig0 = cost.Cost.mig in
        Simulator.advance scalar e;
        let r = Simulator.stepper_result paired in
        Alcotest.(check (list int))
          (Printf.sprintf "request %d: comm, moved, totals, max load" i)
          [ comm; moved; r.Simulator.cost.Cost.comm; r.Simulator.cost.Cost.mig;
            r.Simulator.max_load ]
          [ cost.Cost.comm - comm0; cost.Cost.mig - mig0; cost.Cost.comm;
            cost.Cost.mig; Simulator.max_load scalar ]
      end)
    trace;
  Alcotest.(check bool)
    (Printf.sprintf "frozen requests on cut edges: %d" !frozen_cuts)
    true (!frozen_cuts > 0);
  Alcotest.(check bool) "same result" true
    (Simulator.stepper_result paired = Simulator.stepper_result scalar)

(* Minor words per request on the serve path, over 20k requests at the
   shape of the last pinned row (onl-dynamic, n = 4096, ell = 32, seed
   7919), and on the quiet block path at the same shape.  A request
   through [Engine.ingest] and [decision_to_json] allocates its
   decision record (9 words) and its string (about 16); the algorithm's
   own serve allocates only on its rare dense solver steps.  A closure,
   tuple or boxed float back on the path breaks the budget — the r11
   lint rule allowlists engine.ml and simulator.ml per file, so it
   would not. *)
let words_per_request f trace =
  let w0 = Gc.minor_words () in
  Array.iter f trace;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length trace)

let test_serve_path_allocation () =
  let n = 4096 and ell = 32 and seed = 7919 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:20_000 ~seed in
  let engine = Engine.create ~alg:"onl-dynamic" ~seed inst in
  let engine_words =
    words_per_request
      (fun e -> ignore (Engine.decision_to_json (Engine.ingest engine e)))
      trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "ingest + decision_to_json: %.1f words/request <= 28"
       engine_words)
    true (engine_words <= 28.0);
  let online =
    (Registry.find "onl-dynamic").Registry.build ~epsilon:0.5 ~seed inst
  in
  (* no stepper drains this algorithm's move journal: clear it per
     request, as a stepper would, so it does not grow *)
  let serve_words =
    words_per_request
      (fun e ->
        online.Rbgp_ring.Online.serve e;
        Option.iter Rbgp_ring.Assignment.journal_clear
          online.Rbgp_ring.Online.journal)
      trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "Online.serve: %.2f words/request <= 1" serve_words)
    true (serve_words <= 1.0);
  (* The quiet path: a 4096-request block is one Simulator.advance_block
     loop and one Checkpoint.digest_block call, so with an idle solver
     (never-move) nothing is allocated per request.  A closure or a
     per-request pair back on the path breaks this budget; r11 would not
     catch it, since simulator.ml's allowlist entry covers the file. *)
  let quiet = Engine.create ~alg:"never-move" ~seed inst in
  let blocks =
    Array.init 20 (fun b ->
        Array.init 4096 (fun j -> trace.(((b * 4096) + j) mod 20_000)))
  in
  Engine.ingest_batch_quiet quiet blocks.(0);
  let quiet_words =
    words_per_request (Engine.ingest_batch_quiet quiet) blocks /. 4096.
  in
  Alcotest.(check bool)
    (Printf.sprintf "ingest_batch_quiet: %.4f words/request <= 0.05"
       quiet_words)
    true (quiet_words <= 0.05)

(* --- checkpoint / resume -------------------------------------------- *)

(* Every decision field except the wall-clock latency, for byte-identity
   comparisons between runs. *)
let decision_key (d : Engine.decision) =
  Printf.sprintf "%d|%d|%d|%d|%d|%d|%d" d.Engine.step d.Engine.edge
    d.Engine.comm d.Engine.moved d.Engine.cum_comm d.Engine.cum_mig
    d.Engine.max_load

(* The replay oracle — how resume worked before O(state) snapshots:
   rebuild the engine from the checkpoint's identity
   ([fresh_engine_of]) and re-serve [trace.(0 .. pos - 1)] through it,
   request by request ([replay_prefix]).  A caller that arms something
   the original run had armed (a solver budget) does so between the
   two. *)
let fresh_engine_of ?clock (ckpt : Ckpt.t) =
  let inst =
    Instance.make ~n:ckpt.Ckpt.n ~ell:ckpt.Ckpt.ell ~k:ckpt.Ckpt.k
      ~initial:(Array.copy ckpt.Ckpt.initial) ()
  in
  Engine.create ~epsilon:ckpt.Ckpt.epsilon ?clock ~alg:ckpt.Ckpt.alg
    ~seed:ckpt.Ckpt.seed inst

let replay_prefix e (ckpt : Ckpt.t) trace =
  for i = 0 to ckpt.Ckpt.pos - 1 do
    ignore (Engine.ingest e trace.(i))
  done;
  e

let replay_resume (ckpt : Ckpt.t) trace =
  replay_prefix (fresh_engine_of ckpt) ckpt trace

(* checkpoint at a step, resume both ways — O(state) snapshot restore and
   the replay oracle — and both final results equal the uninterrupted
   run, for every algorithm in the registry *)
let test_checkpoint_resume_all_algorithms () =
  let n = 48 and ell = 4 and steps = 600 and cut = 251 and seed = 23 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:9 in
  List.iter
    (fun (spec : Registry.spec) ->
      let name = spec.Registry.name in
      let uninterrupted =
        let e = Engine.create ~alg:name ~seed inst in
        Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
        outcome_of e
      in
      let first = Engine.create ~alg:name ~seed inst in
      Array.iter (fun q -> ignore (Engine.ingest first q)) (Array.sub trace 0 cut);
      let ckpt = Engine.checkpoint first in
      (* the snapshot must survive its on-disk representation *)
      let ckpt = Ckpt.of_string (Ckpt.to_string ckpt) in
      List.iter
        (fun (how, resumed) ->
          Alcotest.(check int)
            (name ^ ": " ^ how ^ " pos")
            cut (Engine.pos resumed);
          Array.iter
            (fun q -> ignore (Engine.ingest resumed q))
            (Array.sub trace cut (steps - cut));
          check_outcome (name ^ ": " ^ how ^ " == uninterrupted") uninterrupted
            (outcome_of resumed))
        [ ("snapshot resume", Engine.resume ckpt);
          ("replay resume", replay_resume ckpt trace) ])
    Registry.all

(* Every registry algorithm's hooks carry its whole state: a fresh
   instance restored from a snapshot taken mid-run has the same
   assignment and snapshots to the same bytes. *)
let test_every_algorithm_has_state_hooks () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = gen_trace ~n:32 ~steps:300 ~seed:8 in
  List.iter
    (fun (spec : Registry.spec) ->
      let alg = spec.Registry.name in
      let build () = spec.Registry.build ~epsilon:0.5 ~seed:1 inst in
      let served = build () in
      Array.iter served.Online.serve trace;
      let state = served.Online.snapshot () in
      let restored = build () in
      restored.Online.restore state;
      Alcotest.(check string)
        (alg ^ ": restored instance snapshots the same bytes")
        state
        (restored.Online.snapshot ());
      Alcotest.(check (array int))
        (alg ^ ": restored assignment")
        (Assignment.to_array (served.Online.assignment ()))
        (Assignment.to_array (restored.Online.assignment ())))
    Registry.all

let expect_failure name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Failure _ -> ()

let test_resume_detects_tampering () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let trace = gen_trace ~n:32 ~steps:200 ~seed:2 in
  let engine_after alg steps =
    let e = Engine.create ~alg ~seed:4 inst in
    Array.iter (fun q -> ignore (Engine.ingest e q)) (Array.sub trace 0 steps);
    e
  in
  (* the cost is carried by the checkpoint, so what resume can (and does)
     verify is the restored state: against the stored assignment, and by
     the snapshot envelope and the algorithm's own decoder *)
  List.iter
    (fun (spec : Registry.spec) ->
      let alg = spec.Registry.name in
      let ckpt = Engine.checkpoint (engine_after alg 200) in
      let state = Option.get ckpt.Ckpt.alg_state in
      let resume_with s () = Engine.resume { ckpt with Ckpt.alg_state = Some s } in
      let assignment = Array.copy ckpt.Ckpt.assignment in
      assignment.(0) <- (assignment.(0) + 1) mod inst.Instance.ell;
      expect_failure (alg ^ ": tampered assignment") (fun () ->
          Engine.resume { ckpt with Ckpt.assignment });
      expect_failure (alg ^ ": truncated state")
        (resume_with (String.sub state 0 (String.length state - 1)));
      expect_failure (alg ^ ": trailing state bytes")
        (resume_with (state ^ "\000"));
      (* the envelope opens with version 1 as a one-byte varint *)
      Alcotest.(check char) (alg ^ ": snapshot version") '\001' state.[0];
      expect_failure (alg ^ ": wrong snapshot version")
        (resume_with ("\002" ^ String.sub state 1 (String.length state - 1))))
    Registry.all;
  (* a stale solver state — the blob of an earlier position, paired with
     the current assignment — restores a different assignment *)
  List.iter
    (fun alg ->
      let ckpt = Engine.checkpoint (engine_after alg 200) in
      let stale =
        List.find
          (fun (c : Ckpt.t) -> c.Ckpt.assignment <> ckpt.Ckpt.assignment)
          (List.map
             (fun s -> Engine.checkpoint (engine_after alg s))
             [ 190; 150; 100; 50; 0 ])
      in
      expect_failure (alg ^ ": stale solver state") (fun () ->
          Engine.resume { ckpt with Ckpt.alg_state = stale.Ckpt.alg_state }))
    [ "onl-dynamic"; "onl-static"; "dyn/wfa" ]

let test_checkpoint_file_roundtrip () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let e = Engine.create ~alg:"greedy-colocate" ~seed:5 inst in
  Array.iter (fun q -> ignore (Engine.ingest e q)) (gen_trace ~n:32 ~steps:300 ~seed:6);
  let ckpt = Engine.checkpoint e in
  let path = Filename.temp_file "rbgp_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.write ~path ckpt;
      let back = Ckpt.read ~path in
      Alcotest.(check string) "roundtrip" (Ckpt.to_string ckpt)
        (Ckpt.to_string back);
      (* a truncated file is a decode error, not a crash or a wrong value *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw - 3)));
      match Ckpt.read ~path with
      | _ -> Alcotest.fail "truncated checkpoint accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "error names the path" true
            (Astring.String.is_infix ~affix:"rbgp_ckpt" msg))

(* split [trace] into batches whose sizes are drawn from [rng] *)
let partition_trace rng ~max_batch trace =
  let steps = Array.length trace in
  let rec go at acc =
    if at >= steps then List.rev acc
    else
      let len = Stdlib.min (steps - at) (1 + Rng.int rng max_batch) in
      go (at + len) (Array.sub trace at len :: acc)
  in
  go 0 []

(* A fake clock through the engine's seam: it reads [time p] ns once the
   engine has served [p] requests, so request [i] takes
   [time (i + 1) - time i] ns however often the engine reads its clock. *)
let with_clock time make =
  let engine = ref None in
  let clock () =
    match !engine with Some e -> time (Engine.pos e) | None -> time 0
  in
  let e = make ~clock in
  engine := Some e;
  e

(* A stall: one request takes 100 s against a 10 s budget, the others no
   time, so the frozen window is exact whatever the host does. *)
let stall_budget_ns = 10_000_000_000

(* snapshot-resume == replay-resume == uninterrupted, on decision streams
   (latency zeroed) and final checkpoint bytes, over every registry
   algorithm, random traces, cut points and batch partitions — with a
   solver stall (a fake clock that makes one request slow, given to
   every engine of the case) in half the cases, and then the cut inside
   its cooloff half of the time.  A resumed engine also re-checkpoints to the
   exact bytes it was resumed from. *)
let qcheck_checkpoint_resume =
  let gen =
    QCheck2.Gen.(
      let* alg_idx = int_bound (List.length Registry.all - 1) in
      let* seed = int_bound 10_000 in
      let* wseed = int_bound 10_000 in
      let* steps = int_range 50 300 in
      let* stall = opt (pair (int_bound (steps - 2)) (int_range 1 40)) in
      let* in_cooloff = bool in
      let* cut = int_range 1 (steps - 1) in
      let cut =
        match stall with
        | Some (at, cooloff) when in_cooloff ->
            Stdlib.min (steps - 1) (at + 1 + (cut mod cooloff))
        | _ -> cut
      in
      let* pseed = int_bound 10_000 in
      let* max_batch = oneofl [ 1; 7; 64 ] in
      return (alg_idx, seed, wseed, steps, stall, cut, pseed, max_batch))
  in
  let print (alg_idx, seed, wseed, steps, stall, cut, pseed, max_batch) =
    Printf.sprintf
      "alg=%s seed=%d wseed=%d steps=%d stall=%s cut=%d pseed=%d max_batch=%d"
      (List.nth Registry.all alg_idx).Registry.name seed wseed steps
      (match stall with
      | Some (at, c) -> Printf.sprintf "%d+%d" at c
      | None -> "none")
      cut pseed max_batch
  in
  qtest ~count:60 ~print
    "qcheck: checkpoint at random step resumes identically" gen
    (fun (alg_idx, seed, wseed, steps, stall, cut, pseed, max_batch) ->
      let alg = (List.nth Registry.all alg_idx).Registry.name in
      let n = 48 and ell = 4 in
      let inst = Instance.blocks ~n ~ell in
      let trace = gen_trace ~n ~steps ~seed:wseed in
      let setup e =
        match stall with
        | Some (_, cooloff) ->
            Engine.set_solver_budget e ~budget_ns:stall_budget_ns ~cooloff
        | None -> ()
      in
      (* request [at] takes 100 s on whichever engine serves it *)
      let clocked make =
        match stall with
        | Some (at, _) ->
            with_clock (fun p -> if p > at then 100_000_000_000 else 0) make
        | None -> make ~clock:Rbgp_util.Clock.now_ns
      in
      let feed e batches =
        List.concat_map
          (fun b ->
            Array.to_list
              (Array.map (fun q -> decision_key (Engine.ingest e q)) b))
          batches
      in
      let final e = Ckpt.to_string (Engine.checkpoint e) in
      let ref_keys, ref_final =
        let e = clocked (fun ~clock -> Engine.create ~clock ~alg ~seed inst) in
        setup e;
        let keys =
          Array.to_list
            (Array.map (fun q -> decision_key (Engine.ingest e q)) trace)
        in
        (keys, final e)
      in
      let rng = Rng.create pseed in
      let head = partition_trace rng ~max_batch (Array.sub trace 0 cut) in
      let tail =
        partition_trace rng ~max_batch (Array.sub trace cut (steps - cut))
      in
      let snap_keys, snap_final, mid, reckpt =
        let first =
          clocked (fun ~clock -> Engine.create ~clock ~alg ~seed inst)
        in
        setup first;
        let k1 = feed first head in
        let mid = final first in
        let resumed =
          clocked (fun ~clock -> Engine.resume ~clock (Ckpt.of_string mid))
        in
        let reckpt = final resumed in
        setup resumed;
        let k2 = feed resumed tail in
        (k1 @ k2, final resumed, mid, reckpt)
      in
      let replay_keys, replay_final, replay_mid =
        let ckpt = Ckpt.of_string mid in
        let e = clocked (fun ~clock -> fresh_engine_of ~clock ckpt) in
        setup e;
        let e = replay_prefix e ckpt trace in
        let replay_mid = final e in
        let keys = feed e tail in
        (keys, final e, replay_mid)
      in
      let ref_tail = List.filteri (fun i _ -> i >= cut) ref_keys in
      snap_keys = ref_keys && String.equal snap_final ref_final
      && String.equal reckpt mid
      && String.equal replay_mid mid
      && replay_keys = ref_tail
      && String.equal replay_final ref_final)

(* O(state): nothing in a checkpoint grows with the number of requests
   served except varint counters, which gain a byte per 7 bits.  Between
   T = 2k and 20k on n = 48 edges each per-edge count gains at most one
   byte, and a few scalar counters one each — where the served prefix of
   the replay format alone grew by 18,000 bytes.  The last two shapes
   are the one CI serves, with its bound (under 64 B from 1,000 to 9,000
   requests at n = 256, ell = 8), for every registry algorithm. *)
let test_checkpoint_size_flat () =
  List.iter
    (fun (n, ell, workload, trace, t1, t2, slack) ->
      let inst = Instance.blocks ~n ~ell in
      List.iter
        (fun alg ->
          let e = Engine.create ~alg ~seed:7 inst in
          let size () = String.length (Ckpt.to_string (Engine.checkpoint e)) in
          Engine.ingest_batch_quiet e (Array.sub trace 0 t1);
          let at_t1 = size () in
          Engine.ingest_batch_quiet e (Array.sub trace t1 (t2 - t1));
          let at_t2 = size () in
          Alcotest.(check bool)
            (Printf.sprintf "%s, n=%d, %s: %d bytes at T=%d, %d at T=%d" alg n
               workload at_t1 t1 at_t2 t2)
            true
            (abs (at_t2 - at_t1) <= slack))
        Registry.names)
    [
      (48, 4, "rotating", gen_trace ~n:48 ~steps:20_000 ~seed:41, 2_000,
       20_000, 48 + 16);
      (256, 8, "rotating", gen_trace ~n:256 ~steps:9_000 ~seed:8, 1_000,
       9_000, 63);
      ( 256, 8, "uniform",
        fixed (Workloads.uniform ~n:256 ~steps:9_000 (Rng.create 8)),
        1_000, 9_000, 63 );
    ]

(* --- batched ingest ---------------------------------------------------- *)

let per_request_run ~alg ~seed inst trace =
  let e = Engine.create ~alg ~seed inst in
  let ds = Array.map (fun q -> decision_key (Engine.ingest e q)) trace in
  (ds, outcome_of e)

(* The per-request invariants the rest of the system relies on, read
   from outside the engine after request [d]: the assignment is a
   partition of the n processes over the ell servers whose cached loads
   match the map, the load respects the algorithm's claimed
   augmentation, a request costs 0 or 1 in communication, and the
   cumulative costs and the running max load grow by exactly what the
   decision reports (from [prev], the decision before it). *)
let check_step_invariants e ~(prev : Engine.decision option)
    (d : Engine.decision) =
  let inst = Engine.instance e and online = Engine.online e in
  let a = online.Online.assignment () in
  let n = inst.Instance.n and ell = inst.Instance.ell in
  let fail what =
    Alcotest.failf "%s, request %d: %s" (Engine.alg_name e) d.Engine.step what
  in
  if Assignment.n a <> n then fail "assignment does not cover the instance";
  let counts = Array.make ell 0 in
  for p = 0 to n - 1 do
    let s = Assignment.server_of a p in
    if s < 0 || s >= ell then
      fail (Printf.sprintf "process %d on invalid server %d" p s);
    counts.(s) <- counts.(s) + 1
  done;
  if counts <> Assignment.loads a then fail "cached loads differ from the map";
  if
    not
      (Assignment.check_capacity a ~augmentation:online.Online.augmentation)
  then fail "load exceeds the claimed augmentation";
  if d.Engine.comm <> 0 && d.Engine.comm <> 1 then
    fail "communication charge not in {0, 1}";
  let comm0, mig0, max0 =
    match prev with
    | Some p -> (p.Engine.cum_comm, p.Engine.cum_mig, p.Engine.max_load)
    | None -> (0, 0, 0)
  in
  if d.Engine.cum_comm <> comm0 + d.Engine.comm then
    fail "cumulative comm is not the sum of the charges";
  if d.Engine.moved < 0 || d.Engine.cum_mig <> mig0 + d.Engine.moved then
    fail "cumulative mig is not the sum of the charges";
  if
    d.Engine.max_load < max0
    || d.Engine.max_load < Assignment.max_load a
  then fail "running max load fell below a load seen"

(* batched == per-request, decision for decision, for every registry
   algorithm, with the invariant oracle run after every request *)
let test_batched_matches_per_request () =
  let n = 48 and ell = 4 and steps = 600 and seed = 31 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:13 in
  List.iter
    (fun (spec : Registry.spec) ->
      let alg = spec.Registry.name in
      let expected_ds, expected = per_request_run ~alg ~seed inst trace in
      let e = Engine.create ~alg ~seed inst in
      let prev = ref None in
      let checked q =
        let d = Engine.ingest e q in
        check_step_invariants e ~prev:!prev d;
        prev := Some d;
        d
      in
      let got_ds =
        List.concat_map
          (fun batch ->
            Array.to_list (Array.map (fun q -> decision_key (checked q)) batch))
          (partition_trace (Rng.create 7) ~max_batch:64 trace)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s decisions" alg)
        (Array.to_list expected_ds) got_ds;
      check_outcome (Printf.sprintf "%s outcome" alg) expected (outcome_of e))
    Registry.all

(* the prepared batch must be consumed strictly in order *)
let test_prepare_rejects_out_of_order () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let spec = Registry.find "onl-dynamic" in
  let online = spec.Registry.build ~epsilon:0.5 ~seed:3 inst in
  let st = Simulator.stepper inst online in
  let play = Simulator.prepare st [| 0; 1; 2 |] in
  Alcotest.check_raises "out-of-order play rejected"
    (Invalid_argument "Simulator.prepare: requests must be played in order")
    (fun () -> ignore (play 1))

(* batched == per-request byte-identity of serve records and final
   tables across every registry algorithm, random batch partitions, and
   a mid-stream checkpoint/resume cut at a random batch boundary *)
let qcheck_batches_identity =
  let gen =
    QCheck2.Gen.(
      let* alg_idx = int_bound (List.length Registry.all - 1) in
      let* seed = int_bound 10_000 in
      let* wseed = int_bound 10_000 in
      let* steps = int_range 20 250 in
      let* max_batch = oneofl [ 1; 3; 17; 64 ] in
      let* pseed = int_bound 10_000 in
      let* cut_frac = float_range 0.0 1.0 in
      return (alg_idx, seed, wseed, steps, max_batch, pseed, cut_frac))
  in
  qtest ~count:50
    "qcheck: batches + checkpoint cut == sequential, all algorithms"
    gen
    (fun (alg_idx, seed, wseed, steps, max_batch, pseed, cut_frac) ->
      let spec = List.nth Registry.all alg_idx in
      let alg = spec.Registry.name in
      let n = 40 and ell = 4 in
      let inst = Instance.blocks ~n ~ell in
      let trace = gen_trace ~n ~steps ~seed:wseed in
      let expected_ds, expected = per_request_run ~alg ~seed inst trace in
      let batches =
        Array.of_list (partition_trace (Rng.create pseed) ~max_batch trace)
      in
      let cut = int_of_float (cut_frac *. float_of_int (Array.length batches)) in
      let cut = Stdlib.min cut (Array.length batches) in
      let first = Engine.create ~alg ~seed inst in
      let ds = ref [] in
      let feed e batch =
        Array.iter
          (fun d -> ds := decision_key d :: !ds)
          (Array.map (Engine.ingest e) batch)
      in
      for b = 0 to cut - 1 do
        feed first batches.(b)
      done;
      (* resume restores the algorithm's O(state) snapshot *)
      let ckpt = Ckpt.of_string (Ckpt.to_string (Engine.checkpoint first)) in
      let resumed = Engine.resume ckpt in
      for b = cut to Array.length batches - 1 do
        feed resumed batches.(b)
      done;
      let got = outcome_of resumed in
      List.rev !ds = Array.to_list expected_ds
      && got.comm = expected.comm && got.mig = expected.mig
      && got.steps = expected.steps
      && got.max_load = expected.max_load
      && got.violations = expected.violations
      && got.assignment = expected.assignment)

(* --- block accounting ------------------------------------------------- *)

(* cumulative comm, mig, steps, max load and violations of a stepper *)
let totals st =
  let r = Simulator.stepper_result st in
  [
    r.Simulator.cost.Cost.comm;
    r.Simulator.cost.Cost.mig;
    r.Simulator.steps;
    r.Simulator.max_load;
    r.Simulator.capacity_violations;
  ]

(* Simulator.advance_block over [blocks] against Simulator.step per
   request on a twin algorithm: equal totals at every block boundary and
   the same final assignment.  Each block sits in a longer buffer whose
   tail is an out-of-range edge, so [len] alone must bound it. *)
let blocks_match_steps ?(strict = true) inst (build : unit -> Online.t)
    blocks =
  let a = build () and b = build () in
  let sa = Simulator.stepper ~strict inst a
  and sb = Simulator.stepper ~strict inst b in
  let same_totals =
    List.for_all
      (fun block ->
        let len = Array.length block in
        Simulator.advance_block sa (Array.append block [| -1 |]) len;
        Array.iter (fun e -> ignore (Simulator.step sb e)) block;
        totals sa = totals sb)
      blocks
  in
  same_totals
  && Assignment.to_array (a.Online.assignment ())
     = Assignment.to_array (b.Online.assignment ())

let qcheck_advance_block_matches_step =
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 10_000 in
      let* wseed = int_bound 10_000 in
      let* steps = int_range 1 400 in
      let* max_batch = oneofl [ 1; 7; 64; 400 ] in
      let* pseed = int_bound 10_000 in
      return (seed, wseed, steps, max_batch, pseed))
  in
  qtest ~count:25 "qcheck: advance_block == per-request step, all algorithms"
    gen (fun (seed, wseed, steps, max_batch, pseed) ->
      let n = 40 and ell = 4 in
      let inst = Instance.blocks ~n ~ell in
      let trace = gen_trace ~n ~steps ~seed:wseed in
      let blocks = partition_trace (Rng.create pseed) ~max_batch trace in
      List.for_all
        (fun (spec : Registry.spec) ->
          blocks_match_steps inst
            (fun () -> spec.Registry.build ~epsilon:0.5 ~seed inst)
            blocks)
        Registry.all)

(* Billed independently of the simulator: the fixture itself counts, from
   the live assignment, what each request should cost — the cut before
   it reacts, the Hamming distance its reaction moved, the loads after. *)
type oracle = {
  mutable o_comm : int;
  mutable o_mig : int;
  mutable o_steps : int;
  mutable o_max_load : int;
  mutable o_violations : int;
}

let oracle_totals o =
  [ o.o_comm; o.o_mig; o.o_steps; o.o_max_load; o.o_violations ]

(* [react a e calls] moves processes for the [calls]-th request, on edge
   [e]; the fixture claims augmentation [augmentation] *)
let fixture ~augmentation ~react inst =
  let a = Assignment.create inst in
  let before = Assignment.copy a in
  let o =
    {
      o_comm = 0;
      o_mig = 0;
      o_steps = 0;
      o_max_load = Assignment.max_load a;
      o_violations = 0;
    }
  in
  let cap =
    int_of_float ((augmentation *. float_of_int inst.Instance.k) +. 1e-9)
  in
  let serve e =
    if Assignment.cuts_edge a e then o.o_comm <- o.o_comm + 1;
    react a e o.o_steps;
    o.o_mig <- o.o_mig + Assignment.diff_into a before;
    let load = Assignment.max_load a in
    if load > o.o_max_load then o.o_max_load <- load;
    if load > cap then o.o_violations <- o.o_violations + 1;
    o.o_steps <- o.o_steps + 1
  in
  ( Online.make ~name:"fixture" ~augmentation ~assignment:(fun () -> a)
      ~serve ~save:ignore ~load:ignore,
    o )

(* Two non-strict fixtures that drive the paths the block loop adds: an
   algorithm over its claimed capacity from the start, which never moves
   (every step reuses the cached load, and every step is a violation);
   and one that moves a process away and back within every request (a
   non-empty journal that bills nothing) and, every third request, moves
   the edge's far endpoint onto its near endpoint's server for good (the
   shadow must follow, or the next cut check on that edge is wrong). *)
let test_block_fixtures () =
  let n = 24 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:600 ~seed:17 in
  let blocks = partition_trace (Rng.create 5) ~max_batch:50 trace in
  let never _ _ _ = () in
  let bounce a e i =
    let s = Assignment.server_of a e in
    Assignment.set a e ((s + 1) mod ell);
    Assignment.set a e s;
    if i mod 3 = 0 then
      Assignment.set a ((e + 1) mod n) (Assignment.server_of a e)
  in
  List.iter
    (fun (name, augmentation, react) ->
      let build () = fst (fixture ~augmentation ~react inst) in
      Alcotest.(check bool)
        (name ^ ": advance_block == step") true
        (blocks_match_steps ~strict:false inst build blocks);
      let alg, o = fixture ~augmentation ~react inst in
      let st = Simulator.stepper ~strict:false inst alg in
      List.iter
        (fun b -> Simulator.advance_block st b (Array.length b))
        blocks;
      Alcotest.(check (list int))
        (name ^ ": comm, mig, steps, max load, violations vs the live oracle")
        (oracle_totals o) (totals st))
    [
      ("over capacity from the start", 0.5, never);
      ("away and back", 1.0, bounce);
    ];
  (* the fixtures really exercise what they are for *)
  let alg, o = fixture ~augmentation:0.5 ~react:never inst in
  let r =
    Simulator.run ~strict:false inst alg (Trace.fixed trace) ~steps:600
  in
  Alcotest.(check int) "over capacity: every step a violation" 600
    r.Simulator.capacity_violations;
  Alcotest.(check int) "over capacity: oracle agrees" 600 o.o_violations;
  let alg, o = fixture ~augmentation:1.0 ~react:bounce inst in
  ignore (Simulator.run ~strict:false inst alg (Trace.fixed trace) ~steps:600);
  Alcotest.(check bool)
    (Printf.sprintf "away and back: moves billed (%d) and cut checks \
                     changed by them (%d comm)" o.o_mig o.o_comm)
    true
    (o.o_mig > 0 && o.o_comm > 0 && o.o_violations > 0)

(* An out-of-range edge anywhere in a quiet block raises before any
   request is billed: position, digest, costs, assignment, algorithm
   state and metrics are as they were, and serving carries on as if the
   block had never come. *)
let test_quiet_block_validates_first () =
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps:500 ~seed:3 in
  let whole = Engine.create ~alg:"onl-dynamic" ~seed:9 inst in
  Engine.ingest_batch_quiet whole trace;
  List.iter
    (fun (bad_at, bad) ->
      let e = Engine.create ~alg:"onl-dynamic" ~seed:9 inst in
      Engine.ingest_batch_quiet e (Array.sub trace 0 200);
      let ckpt = Ckpt.to_string (Engine.checkpoint e) in
      let m = Engine.metrics e in
      let counters () =
        [ Metrics.requests m; Metrics.comm m; Metrics.mig m; Metrics.max_load m ]
      in
      let metrics = counters () in
      let block = Array.sub trace 200 100 in
      block.(bad_at) <- bad;
      let label = Printf.sprintf "edge %d at %d" bad bad_at in
      Alcotest.check_raises (label ^ " raises")
        (Invalid_argument "Simulator.step: edge out of range") (fun () ->
          Engine.ingest_batch_quiet e block);
      Alcotest.(check int) (label ^ ": position") 200 (Engine.pos e);
      Alcotest.(check string) (label ^ ": checkpoint bytes") ckpt
        (Ckpt.to_string (Engine.checkpoint e));
      Alcotest.(check (list int)) (label ^ ": metrics") metrics (counters ());
      Engine.ingest_batch_quiet e (Array.sub trace 200 300);
      Alcotest.(check string) (label ^ ": then serves on unchanged")
        (Ckpt.to_string (Engine.checkpoint whole))
        (Ckpt.to_string (Engine.checkpoint e)))
    [ (0, -1); (57, n); (99, max_int) ]

let qcheck_digest_block =
  let gen =
    QCheck2.Gen.(
      let* d = int in
      let* pos = int_bound 1_000_000_000 in
      let* edges = array_size (int_bound 300) (int_bound 100_000) in
      let* len = int_bound (Array.length edges) in
      return (d, pos, edges, len))
  in
  qtest ~count:200 "qcheck: digest_block == digest_add folded" gen
    (fun (d, pos, edges, len) ->
      let folded = ref d in
      for j = 0 to len - 1 do
        folded := Ckpt.digest_add !folded ~pos:(pos + j) edges.(j)
      done;
      Ckpt.digest_block d ~pos edges len = !folded)

(* --- trace codecs --------------------------------------------------- *)

let with_temp ext f =
  let path = Filename.temp_file "rbgp_trace" ext in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A whole trace file in either format, read through [Source] as [rbgp
   sim --trace-file] reads it. *)
let read_trace ~n path =
  let src = Source.open_file ~n path in
  Fun.protect
    ~finally:(fun () -> Source.close src)
    (fun () ->
      let block = Array.make 4096 0 in
      let rec go acc =
        match Source.next_batch src block ~limit:(Array.length block) with
        | 0 -> Array.concat (List.rev acc)
        | got -> go (Array.sub block 0 got :: acc)
      in
      go [])

let qcheck_binary_text_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 300 in
      let* len = int_bound 500 in
      let* trace = array_size (return len) (int_bound (n - 1)) in
      let* ell = int_bound 16 in
      let* seed = int_range (-100) 10_000 in
      return (n, trace, ell, seed))
  in
  qtest ~count:80 "qcheck: binary <-> text trace round-trip" gen
    (fun (n, trace, ell, seed) ->
      with_temp ".rbt" (fun bin ->
          with_temp ".txt" (fun txt ->
              Trace_codec.write ~path:bin ~n ~ell ~seed trace;
              let from_bin = read_trace ~n bin in
              Trace_io.save ~path:txt from_bin;
              let from_txt = read_trace ~n txt in
              (* the format sniff: a header for the binary file only *)
              let header path =
                let src = Source.open_file ~n path in
                Fun.protect
                  ~finally:(fun () -> Source.close src)
                  (fun () -> Source.header src)
              in
              (match (header bin, header txt) with
              | Some hdr, None ->
                  hdr.Trace_codec.n = n
                  && hdr.Trace_codec.ell = ell
                  && hdr.Trace_codec.seed = seed
              | _ -> false)
              && from_bin = trace && from_txt = trace)))

let test_codec_detects_torn_frame () =
  let n = 300 in
  (* edge 200 needs a two-byte varint: chopping one byte tears the frame *)
  with_temp ".rbt" (fun path ->
      Trace_codec.write ~path ~n ~ell:0 ~seed:0 [| 1; 200 |];
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw - 1)));
      match read_trace ~n path with
      | _ -> Alcotest.fail "torn frame accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "error mentions torn frame" true
            (Astring.String.is_infix ~affix:"torn" msg))

let test_codec_rejects_wrong_n () =
  with_temp ".rbt" (fun path ->
      Trace_codec.write ~path ~n:64 ~ell:0 ~seed:0 [| 1; 2; 3 |];
      match read_trace ~n:128 path with
      | _ -> Alcotest.fail "mismatched n accepted"
      | exception Invalid_argument _ -> ())

let test_trace_io_error_names_path () =
  with_temp ".txt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "1\nbogus\n2\n");
      match read_trace ~n:10 path with
      | _ -> Alcotest.fail "bogus line accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S names the file" msg)
            true
            (Astring.String.is_infix ~affix:path msg
            && Astring.String.is_infix ~affix:"line 2" msg))

(* --- sources -------------------------------------------------------- *)

(* One request through the block API. *)
let pull src =
  let one = [| 0 |] in
  match Source.next_batch src one ~limit:1 with 0 -> None | _ -> Some one.(0)

let test_source_binary_and_text_agree () =
  let n = 96 in
  let trace = gen_trace ~n ~steps:700 ~seed:13 in
  let drain src =
    let acc = ref [] in
    let rec go () =
      match pull src with
      | Some e ->
          acc := e :: !acc;
          go ()
      | None -> ()
    in
    go ();
    Source.close src;
    Array.of_list (List.rev !acc)
  in
  with_temp ".rbt" (fun bin ->
      with_temp ".txt" (fun txt ->
          Trace_codec.write ~path:bin ~n ~ell:8 ~seed:13 trace;
          Trace_io.save ~path:txt trace;
          let from_bin = drain (Source.open_file ~n bin) in
          let from_txt = drain (Source.open_file ~n txt) in
          Alcotest.(check (array int)) "binary source" trace from_bin;
          Alcotest.(check (array int)) "text source" trace from_txt))

let test_source_mmap_kinds () =
  let n = 64 in
  let trace = gen_trace ~n ~steps:50 ~seed:5 in
  with_temp ".rbt" (fun bin ->
      with_temp ".txt" (fun txt ->
          Trace_codec.write ~path:bin ~n ~ell:8 ~seed:5 trace;
          Trace_io.save ~path:txt trace;
          let kind_of ?format ?mmap path =
            let src = Source.open_file ?format ?mmap ~n path in
            let k = Source.kind src in
            Source.close src;
            k
          in
          let pp_kind = function `Mmap -> "mmap" | `Channel -> "channel" in
          let kind = Alcotest.testable (Fmt.of_to_string pp_kind) ( = ) in
          Alcotest.check kind "binary file auto-detects to mmap" `Mmap
            (kind_of bin);
          Alcotest.check kind "--mmap off forces the channel" `Channel
            (kind_of ~mmap:`Off bin);
          Alcotest.check kind "--mmap on maps" `Mmap (kind_of ~mmap:`On bin);
          Alcotest.check kind "text traces stream" `Channel (kind_of txt);
          (* the mapped source still exposes the framed header *)
          let src = Source.open_file ~n bin in
          (match Source.header src with
          | Some h ->
              Alcotest.(check int) "mmap header n" n h.Trace_codec.n;
              Alcotest.(check int) "mmap header seed" 5 h.Trace_codec.seed
          | None -> Alcotest.fail "mapped binary source lost its header");
          Source.close src))

(* A missing file is one Sys_error naming the path in every mode, as
   open_in_bin reports it: the mapped modes open with Unix.openfile. *)
let test_source_missing_file () =
  let path = Filename.temp_file "rbgp_missing" ".rbt" in
  Sys.remove path;
  let want = path ^ ": " ^ Unix.error_message Unix.ENOENT in
  let check label f =
    match f () with
    | () -> Alcotest.failf "%s: opened a missing file" label
    | exception Sys_error msg -> Alcotest.(check string) label want msg
  in
  List.iter
    (fun (label, format, mmap) ->
      check label (fun () -> Source.close (Source.open_file ~format ~mmap ~n:16 path)))
    [
      ("binary, mmap on", `Binary, `On);
      ("binary, mmap off", `Binary, `Off);
      ("auto, mmap on", `Auto, `On);
      ("text", `Text, `Auto);
    ];
  check "Trace_codec.map" (fun () -> ignore (Trace_codec.map path))

(* [`Auto] sniffs the format once, from the bytes it then serves: the
   mapped region of a regular file, or the first bytes of the kept channel
   under --mmap off.  Every mode yields the backend, header, requests and
   errors it always did.  A pipe is never sniffed: it reads as text unless
   the binary format is asked for. *)
let test_source_format_sniff () =
  let n = 64 in
  let trace = gen_trace ~n ~steps:300 ~seed:9 in
  let drain src =
    Fun.protect
      ~finally:(fun () -> Source.close src)
      (fun () ->
        let buf = Array.make 128 0 and acc = ref [] in
        let rec go () =
          match Source.next_batch src buf ~limit:128 with
          | 0 -> Array.concat (List.rev !acc)
          | got ->
              acc := Array.sub buf 0 got :: !acc;
              go ()
        in
        (Source.kind src, Option.is_some (Source.header src), go ()))
  in
  let pp_kind = function `Mmap -> "mmap" | `Channel -> "channel" in
  let kind = Alcotest.testable (Fmt.of_to_string pp_kind) ( = ) in
  let write_raw path contents =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
  in
  let raises_invalid label ~affix f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %S" label msg affix)
          true
          (Astring.String.is_infix ~affix msg)
  in
  let modes = [ `Auto; `On; `Off ] in
  let mode_name = function `Auto -> "auto" | `On -> "on" | `Off -> "off" in
  with_temp ".rbt" (fun bin ->
      with_temp ".txt" (fun txt ->
          Trace_codec.write ~path:bin ~n ~ell:4 ~seed:9 trace;
          Trace_io.save ~path:txt trace;
          List.iter
            (fun mmap ->
              let m = mode_name mmap in
              let k, hdr, got = drain (Source.open_file ~mmap ~n bin) in
              Alcotest.check kind ("binary, mmap " ^ m)
                (if mmap = `Off then `Channel else `Mmap)
                k;
              Alcotest.(check bool) ("binary header, mmap " ^ m) true hdr;
              Alcotest.(check (array int)) ("binary requests, mmap " ^ m) trace got;
              let k, hdr, got = drain (Source.open_file ~mmap ~n txt) in
              Alcotest.check kind ("text, mmap " ^ m) `Channel k;
              Alcotest.(check bool) ("no text header, mmap " ^ m) false hdr;
              Alcotest.(check (array int)) ("text requests, mmap " ^ m) trace got;
              raises_invalid ("wrong n, mmap " ^ m) ~affix:bin (fun () ->
                  drain (Source.open_file ~mmap ~n:(2 * n) bin));
              (match Source.open_file ~mmap ~n (bin ^ ".missing") with
              | _ -> Alcotest.fail "missing file opened"
              | exception Sys_error _ -> ());
              (* shorter than the magic, or only its first bytes: text *)
              write_raw txt "7\n";
              let _, _, got = drain (Source.open_file ~mmap ~n txt) in
              Alcotest.(check (array int)) ("two-byte text, mmap " ^ m) [| 7 |] got;
              write_raw txt "RBGX\n";
              raises_invalid ("magic-like text, mmap " ^ m) ~affix:"line 1"
                (fun () -> drain (Source.open_file ~mmap ~n txt));
              write_raw txt "";
              let _, _, got = drain (Source.open_file ~mmap ~n txt) in
              Alcotest.(check (array int)) ("empty file, mmap " ^ m) [||] got;
              if mmap <> `On then
                raises_invalid ("empty binary, mmap " ^ m) ~affix:"missing magic"
                  (fun () ->
                    drain (Source.open_file ~format:`Binary ~mmap ~n txt));
              Trace_io.save ~path:txt trace)
            modes));
  (* a FIFO, held open for writing by this process so that neither open
     blocks; it is closed once the source is open, so the data ends in an
     EOF *)
  let fifo = Filename.temp_file "rbgp_fifo" "" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  Fun.protect
    ~finally:(fun () -> Sys.remove fifo)
    (fun () ->
      let through_fifo ?format contents =
        let fd = Unix.openfile fifo [ Unix.O_RDWR ] 0 in
        let src =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let b = Bytes.of_string contents in
              ignore (Unix.write fd b 0 (Bytes.length b));
              Source.open_file ?format ~n fifo)
        in
        drain src
      in
      let small = Array.sub trace 0 100 in
      with_temp ".rbt" (fun bin ->
          with_temp ".txt" (fun txt ->
              Trace_codec.write ~path:bin ~n ~ell:4 ~seed:9 small;
              Trace_io.save ~path:txt small;
              let read path = In_channel.with_open_bin path In_channel.input_all in
              let k, hdr, got = through_fifo (read txt) in
              Alcotest.check kind "fifo streams" `Channel k;
              Alcotest.(check bool) "fifo text: no header" false hdr;
              Alcotest.(check (array int)) "fifo reads as text" small got;
              let _, hdr, got = through_fifo ~format:`Binary (read bin) in
              Alcotest.(check bool) "fifo binary header" true hdr;
              Alcotest.(check (array int)) "fifo binary with --format bin" small
                got;
              raises_invalid "fifo binary without --format bin" ~affix:"line 1"
                (fun () -> through_fifo (read bin)))))

let test_source_next_batch_matches_trace () =
  let n = 96 in
  let trace = gen_trace ~n ~steps:701 ~seed:17 in
  let drain_batched src ~block =
    let buf = Array.make block 0 in
    let acc = ref [] in
    let continue = ref true in
    while !continue do
      let got = Source.next_batch src buf ~limit:block in
      if got = 0 then continue := false
      else
        for j = 0 to got - 1 do
          acc := buf.(j) :: !acc
        done
    done;
    Source.close src;
    Array.of_list (List.rev !acc)
  in
  with_temp ".rbt" (fun bin ->
      Trace_codec.write ~path:bin ~n ~ell:8 ~seed:17 trace;
      List.iter
        (fun block ->
          Alcotest.(check (array int))
            (Printf.sprintf "mmap next_batch, block %d" block)
            trace
            (drain_batched (Source.open_file ~mmap:`On ~n bin) ~block);
          Alcotest.(check (array int))
            (Printf.sprintf "channel next_batch, block %d" block)
            trace
            (drain_batched (Source.open_file ~mmap:`Off ~n bin) ~block))
        [ 1; 7; 64; 1024 ];
      (* limit outside the buffer is rejected, not clamped *)
      let src = Source.open_file ~mmap:`On ~n bin in
      (match Source.next_batch src (Array.make 4 0) ~limit:5 with
      | _ -> Alcotest.fail "oversized limit accepted"
      | exception Invalid_argument _ -> ());
      Source.close src)

(* The quiet batch path is observationally identical to the instrumented
   one: same costs, same assignment, same stream digest — so a checkpoint
   taken after quiet batches resumes byte-identically. *)
let test_quiet_batch_identity () =
  let n = 128 and ell = 8 in
  let trace = gen_trace ~n ~steps:900 ~seed:23 in
  List.iter
    (fun alg ->
      let inst = Instance.blocks ~n ~ell in
      let loud = Engine.create ~alg ~seed:3 inst in
      let quiet = Engine.create ~alg ~seed:3 inst in
      let block = 128 in
      let at = ref 0 in
      while !at < Array.length trace do
        let len = Stdlib.min block (Array.length trace - !at) in
        let chunk = Array.sub trace !at len in
        ignore (Array.map (Engine.ingest loud) chunk);
        Engine.ingest_batch_quiet quiet chunk;
        at := !at + len
      done;
      check_outcome
        (Printf.sprintf "%s: quiet == instrumented" alg)
        (outcome_of loud) (outcome_of quiet);
      Alcotest.(check int)
        (alg ^ ": same position") (Engine.pos loud) (Engine.pos quiet);
      Alcotest.(check int)
        (alg ^ ": metrics saw every request")
        (Array.length trace)
        (Metrics.requests (Engine.metrics quiet));
      let ck_loud = Engine.checkpoint loud
      and ck_quiet = Engine.checkpoint quiet in
      Alcotest.(check string)
        (alg ^ ": identical checkpoint bytes") (Ckpt.to_string ck_loud)
        (Ckpt.to_string ck_quiet);
      let resumed = Engine.resume ck_quiet in
      check_outcome
        (alg ^ ": quiet checkpoint resumes")
        (outcome_of loud) (outcome_of resumed))
    [ "onl-dynamic"; "never-move" ]

(* End-to-end: the same binary trace served from the mmap source and the
   channel source produces identical outcomes and byte-identical final
   checkpoints, quiet or instrumented — the CLI identity behind
   --mmap auto/on/off. *)
let test_source_mmap_vs_channel_serve_identity () =
  let n = 128 and ell = 8 in
  let trace = gen_trace ~n ~steps:800 ~seed:29 in
  with_temp ".rbt" (fun bin ->
      Trace_codec.write ~path:bin ~n ~ell ~seed:29 trace;
      let serve ~mmap ~quiet =
        let inst = Instance.blocks ~n ~ell in
        let engine = Engine.create ~alg:"onl-dynamic" ~seed:7 inst in
        let src = Source.open_file ~mmap ~n bin in
        let buf = Array.make 256 0 in
        let continue = ref true in
        while !continue do
          let got = Source.next_batch src buf ~limit:(Array.length buf) in
          if got = 0 then continue := false
          else begin
            let chunk = Array.sub buf 0 got in
            if quiet then Engine.ingest_batch_quiet engine chunk
            else ignore (Array.map (Engine.ingest engine) chunk)
          end
        done;
        Source.close src;
        (outcome_of engine, Ckpt.to_string (Engine.checkpoint engine))
      in
      let reference, ref_ckpt = serve ~mmap:`Off ~quiet:false in
      List.iter
        (fun (msg, (outcome, ckpt)) ->
          check_outcome msg reference outcome;
          Alcotest.(check string) (msg ^ ": checkpoint bytes") ref_ckpt ckpt)
        [
          ("mmap == channel", serve ~mmap:`On ~quiet:false);
          ("mmap quiet == channel instrumented", serve ~mmap:`On ~quiet:true);
          ("mmap quiet == channel quiet", serve ~mmap:`Off ~quiet:true);
        ])

(* --skip-prefix: re-reading the served prefix from a trace file checks
   its digest against the checkpoint's.  The identical trace passes and
   leaves the source at the first unserved request; a trace that differs
   in one early request, or ends early, is refused with the position and
   both digests. *)
let test_consume_prefix_digest () =
  let n = 64 and ell = 4 and pos = 300 in
  let trace = gen_trace ~n ~steps:500 ~seed:19 in
  let e = Engine.create ~alg:"onl-dynamic" ~seed:3 (Instance.blocks ~n ~ell) in
  Engine.ingest_batch_quiet e (Array.sub trace 0 pos);
  let ckpt = Engine.checkpoint e in
  let consume path =
    let src = Source.open_file ~n path in
    Fun.protect
      ~finally:(fun () -> Source.close src)
      (fun () ->
        Source.consume_prefix src ckpt;
        pull src)
  in
  with_temp ".rbt" (fun path ->
      Trace_codec.write ~path ~n ~ell ~seed:19 trace;
      Alcotest.(check (option int)) "identical trace passes" (Some trace.(pos))
        (consume path);
      let changed = Array.copy trace in
      changed.(3) <- (changed.(3) + 1) mod n;
      Trace_codec.write ~path ~n ~ell ~seed:19 changed;
      (match consume path with
      | _ -> Alcotest.fail "a trace differing at request 3 was accepted"
      | exception Failure msg ->
          let names affix = Astring.String.is_infix ~affix msg in
          Alcotest.(check bool)
            (Printf.sprintf "message %S names the position and both digests" msg)
            true
            (names (string_of_int pos)
            && names (Printf.sprintf "%016x" ckpt.Ckpt.digest)
            && names "trace digest"));
      Trace_codec.write ~path ~n ~ell ~seed:19 (Array.sub trace 0 (pos - 1));
      match consume path with
      | _ -> Alcotest.fail "a trace shorter than the checkpoint was accepted"
      | exception Failure msg ->
          Alcotest.(check bool) "short trace named" true
            (Astring.String.is_infix ~affix:"trace ends" msg))

(* Construction failures must release the channel exactly when the
   source was to own it: open_file hands its descriptor straight to
   of_channel, so a header-parse error without the close would leak an
   fd per failed open.  A caller-owned channel must survive the same
   failure untouched. *)
let test_source_owned_channel_closed_on_header_error () =
  with_temp ".rbt" (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "NOTATRACE");
      let ic = open_in_bin path in
      (match Source.of_channel ~path ~owns_channel:true ~format:`Binary ~n:8 ic with
      | _ -> Alcotest.fail "bad header accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S names the file" msg)
            true
            (Astring.String.is_infix ~affix:path msg));
      (match input_byte ic with
      | _ -> Alcotest.fail "owned channel still open after failed construction"
      | exception Sys_error _ -> ());
      let ic2 = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic2)
        (fun () ->
          (match
             Source.of_channel ~path ~owns_channel:false ~format:`Binary ~n:8
               ic2
           with
          | _ -> Alcotest.fail "bad header accepted"
          | exception Invalid_argument _ -> ());
          match input_byte ic2 with
          | _ -> ()
          | exception Sys_error _ ->
              Alcotest.fail "caller-owned channel closed by failed construction"))

(* A stream that dies mid-frame (producer killed between the bytes of a
   varint) must surface as a torn-frame decode error carrying the byte
   offset, not as a silent end of stream.  Both backends first deliver
   the complete frames of the block, then raise on every later call,
   naming the byte where the torn frame began: header + frames 5 and 6 +
   a lone 0x80 (continuation bit set, next byte never arrives). *)
let test_source_pipe_eof_mid_frame () =
  let n = 8 and ell = 4 in
  let write oc =
    Trace_codec.output_header oc ~n ~ell ~seed:0;
    Trace_codec.output_request oc 5;
    Trace_codec.output_request oc 6;
    output_byte oc 0x80
  in
  let torn_at = ref None in
  let check label src =
    Fun.protect
      ~finally:(fun () -> Source.close src)
      (fun () ->
        let dst = Array.make 4 0 in
        Alcotest.(check int) (label ^ ": intact frames before the tear") 2
          (Source.next_batch src dst ~limit:4);
        Alcotest.(check (list int)) (label ^ ": their edges") [ 5; 6 ]
          [ dst.(0); dst.(1) ];
        for call = 1 to 2 do
          match Source.next_batch src dst ~limit:4 with
          | got ->
              Alcotest.fail
                (Printf.sprintf "%s: call %d after the tear returned %d" label
                   call got)
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: message %S reports a torn frame" label msg)
                true
                (Astring.String.is_infix ~affix:"torn frame" msg);
              let at =
                Scanf.sscanf
                  (snd (Option.get (Astring.String.cut ~sep:"at byte " msg)))
                  "%d" Fun.id
              in
              (match !torn_at with
              | None -> torn_at := Some at
              | Some want ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: call %d names the torn frame's start"
                       label call)
                    want at)
        done)
  in
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr in
  write oc;
  close_out oc;
  check "pipe"
    (Source.of_channel ~path:"<pipe>" ~owns_channel:true ~format:`Binary ~n
       (Unix.in_channel_of_descr rd));
  let path = Filename.temp_file "rbgp_torn" ".rbt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      write oc;
      close_out oc;
      let src = Source.open_file ~mmap:`On ~n path in
      Alcotest.(check bool) "the file is mapped" true (Source.kind src = `Mmap);
      check "mmap" src);
  (* the header is 8 bytes and each frame one *)
  Alcotest.(check (option int)) "torn frame starts at byte 10" (Some 10)
    !torn_at

(* A bad frame that is not a torn tail, seen by both backends of one
   file: an edge out of range (header + 5, 9, 6, 7 with n = 8) and a
   varint over nine bytes (header + 5, 6 + ten continuation bytes, then
   3).  Each backend delivers the valid requests before the bad frame,
   then raises on every later call, and both name the same byte in the
   same message: the end of the out-of-range frame (10), the start of
   the over-long one (10). *)
let test_source_bad_frame_parity () =
  let n = 8 and ell = 4 in
  let outcomes ~mmap ~limit path =
    let src = Source.open_file ~mmap ~n path in
    Fun.protect
      ~finally:(fun () -> Source.close src)
      (fun () ->
        let dst = Array.make 4 0 in
        List.init 4 (fun _ ->
            match Source.next_batch src dst ~limit with
            | got -> Ok (Array.to_list (Array.sub dst 0 got))
            | exception Invalid_argument msg -> Error msg))
  in
  let probe label write limit want =
    let path = Filename.temp_file "rbgp_bad" ".rbt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        Trace_codec.output_header oc ~n ~ell ~seed:0;
        write oc;
        close_out oc;
        let show = function
          | Ok es -> String.concat ";" (List.map string_of_int es)
          | Error msg -> msg
        in
        let chan = outcomes ~mmap:`Off ~limit path in
        let mapped = outcomes ~mmap:`On ~limit path in
        Alcotest.(check (list string))
          (Printf.sprintf "%s, limit %d: mmap == channel" label limit)
          (List.map show chan) (List.map show mapped);
        Alcotest.(check (list string))
          (Printf.sprintf "%s, limit %d: valid prefix, then the error" label
             limit)
          (List.map
             (function
               | Ok es -> String.concat ";" (List.map string_of_int es)
               | Error m -> Printf.sprintf "Trace_codec: %s: %s" path m)
             want)
          (List.map show chan))
  in
  let out_of_range oc =
    List.iter (Trace_codec.output_request oc) [ 5; 9; 6; 7 ]
  in
  let range_err = "edge 9 out of [0, 8) (frame ends at byte 10)" in
  probe "edge out of range" out_of_range 2
    [ Ok [ 5 ]; Error range_err; Error range_err; Error range_err ];
  probe "edge out of range" out_of_range 1
    [ Ok [ 5 ]; Error range_err; Error range_err; Error range_err ];
  let overlong oc =
    List.iter (Trace_codec.output_request oc) [ 5; 6 ];
    output_string oc (String.make 10 '\xff');
    output_byte oc 1;
    Trace_codec.output_request oc 3
  in
  let long_err = "bad frame (varint over 9 bytes at byte 10)" in
  probe "varint over nine bytes" overlong 4
    [ Ok [ 5; 6 ]; Error long_err; Error long_err; Error long_err ];
  probe "varint over nine bytes" overlong 1
    [ Ok [ 5 ]; Ok [ 6 ]; Error long_err; Error long_err ]

(* --- metrics -------------------------------------------------------- *)

let test_metrics_histogram () =
  let m = Metrics.create () in
  for _ = 1 to 90 do
    Metrics.observe m ~latency_ns:1000 ~comm:1 ~moved:0 ~max_load:3
  done;
  for _ = 1 to 10 do
    Metrics.observe m ~latency_ns:1_000_000 ~comm:0 ~moved:2 ~max_load:5
  done;
  Alcotest.(check int) "requests" 100 (Metrics.requests m);
  Alcotest.(check int) "comm" 90 (Metrics.comm m);
  Alcotest.(check int) "mig" 20 (Metrics.mig m);
  Alcotest.(check int) "max load" 5 (Metrics.max_load m);
  (* 1000ns lands in bucket [512, 1024), 1ms in [2^19, 2^20) *)
  Alcotest.(check int) "p50" 512 (Metrics.quantile m 0.5);
  Alcotest.(check int) "p99" 524288 (Metrics.quantile m 0.99);
  Alcotest.(check bool) "json tagged" true
    (Astring.String.is_prefix ~affix:"{\"type\":\"metrics\"" (Metrics.to_json m));
  let fresh = Metrics.create () in
  Alcotest.(check int) "fresh quantile" 0 (Metrics.quantile fresh 0.99)

(* The histogram's bucket index as a shift loop: floor (log2 ns) for
   ns >= 2, bucket 0 below, capped at the last of the 63 buckets. *)
let bucket_by_loop ns =
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  if ns <= 1 then 0 else Stdlib.min 62 (go 0 ns)

(* A bucket's quantile is its lower bound (0 for bucket 0), so one
   observation's p50 names the bucket [Metrics.observe] filed it in. *)
let test_metrics_bucket_index () =
  let powers = List.init 61 (fun k -> 1 lsl (k + 1)) in
  let probes =
    [ 0; 1; (1 lsl 53) - 1; 1 lsl 53; (1 lsl 53) + 1; max_int ]
    @ List.concat_map (fun p -> [ p - 1; p; p + 1 ]) powers
  in
  List.iter
    (fun ns ->
      let m = Metrics.create () in
      Metrics.observe m ~latency_ns:ns ~comm:0 ~moved:0 ~max_load:0;
      let b = bucket_by_loop ns in
      Alcotest.(check int)
        (Printf.sprintf "bucket of %d" ns)
        (if b = 0 then 0 else 1 lsl b)
        (Metrics.quantile m 0.5))
    probes

(* A float-summing reference of the metrics record: the latency sum as
   the float it was before it became an int, buckets by the loop.  Its
   JSONL record must match Metrics byte for byte, wall-clock fields (rps,
   elapsed_s) masked, and so must the whole Prometheus exposition of
   several such series, rendered here with the Printf formats the
   exposition was first written with ([%d], [%g] of 2.0 ** (i + 1) *.
   1e-9, [%.9g]), uptime masked.  The series carry two labels, none, and
   a label value that needs escaping.  Latencies are kept small enough
   that every float partial sum is exact (below 2^53), the range where
   the two sums are the same number. *)
type metrics_op =
  | Obs of int * int * int * int  (* latency, comm, moved, max_load *)
  | Batch of int * int * int * int * int  (* count, latency, comm, mig, max_load *)
  | Degraded
  | Recovered

type ref_metrics = {
  rb : int array;
  mutable rn : int;
  mutable rcomm : int;
  mutable rmig : int;
  mutable rmax : int;
  mutable rsum : float;
  mutable rdeg : int;
  mutable rrec : int;
}

let ref_apply r op =
  let file count ns lat comm mig max_load =
    let b = bucket_by_loop ns in
    r.rb.(b) <- r.rb.(b) + count;
    r.rn <- r.rn + count;
    r.rcomm <- r.rcomm + comm;
    r.rmig <- r.rmig + mig;
    if max_load > r.rmax then r.rmax <- max_load;
    r.rsum <- r.rsum +. float_of_int lat
  in
  match op with
  | Obs (lat, comm, moved, max_load) ->
      let lat = Stdlib.max 0 lat in
      file 1 lat lat comm moved max_load
  | Batch (count, lat, comm, mig, max_load) ->
      if count > 0 then begin
        let lat = Stdlib.max 0 lat in
        file count (lat / count) lat comm mig max_load
      end
  | Degraded -> r.rdeg <- r.rdeg + 1
  | Recovered -> r.rrec <- r.rrec + 1

let metrics_apply m op =
  match op with
  | Obs (lat, comm, moved, max_load) ->
      Metrics.observe m ~latency_ns:lat ~comm ~moved ~max_load
  | Batch (count, lat, comm, mig, max_load) ->
      Metrics.observe_batch m ~count ~latency_ns:lat ~comm ~mig ~max_load
  | Degraded -> Metrics.note_degraded m
  | Recovered -> Metrics.note_recovered m

let ref_quantile r q =
  if r.rn = 0 then 0
  else begin
    let rank =
      Stdlib.max 1 (Stdlib.min r.rn (int_of_float (ceil (q *. float_of_int r.rn))))
    in
    let rec find i acc =
      let acc = acc + r.rb.(i) in
      if acc >= rank then (if i = 0 then 0 else 1 lsl i) else find (i + 1) acc
    in
    find 0 0
  end

let ref_json r =
  Printf.sprintf
    "{\"type\":\"metrics\",\"requests\":%d,\"rps\":_,\"p50_ns\":%d,\
     \"p90_ns\":%d,\"p99_ns\":%d,\"mean_ns\":%.0f,\"comm\":%d,\"mig\":%d,\
     \"max_load\":%d,\"degraded\":%d,\"recovered\":%d,\"elapsed_s\":_}"
    r.rn (ref_quantile r 0.5) (ref_quantile r 0.9) (ref_quantile r 0.99)
    (if r.rn = 0 then 0.0 else r.rsum /. float_of_int r.rn)
    r.rcomm r.rmig r.rmax r.rdeg r.rrec

let ref_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let ref_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (ref_escape v))
             labels)
      ^ "}"

let ref_labels_le labels le =
  "{"
  ^ String.concat ""
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=\"%s\"," k (ref_escape v))
         labels)
  ^ Printf.sprintf "le=\"%s\"}" le

let ref_exposition series =
  let buf = Buffer.create 4096 in
  let family name help kind value =
    Buffer.add_string buf
      (Printf.sprintf "# HELP rbgp_%s %s\n# TYPE rbgp_%s %s\n" name help name
         kind);
    List.iter
      (fun (labels, r) ->
        Buffer.add_string buf
          (Printf.sprintf "rbgp_%s%s %s\n" name (ref_labels labels) (value r)))
      series
  in
  let int f r = Printf.sprintf "%d" (f r) in
  family "requests_total" "Requests served." "counter" (int (fun r -> r.rn));
  family "comm_cost_total" "Cumulative communication cost." "counter"
    (int (fun r -> r.rcomm));
  family "migration_cost_total" "Cumulative migration cost." "counter"
    (int (fun r -> r.rmig));
  family "degraded_requests_total"
    "Requests served on the degraded never-move path." "counter"
    (int (fun r -> r.rdeg));
  family "solver_repromotions_total"
    "Re-promotions from the degraded path back to the real solver." "counter"
    (int (fun r -> r.rrec));
  family "max_load" "Maximum cluster load observed." "gauge"
    (int (fun r -> r.rmax));
  family "uptime_seconds" "Seconds since metrics were created." "gauge"
    (fun _ -> "_");
  Buffer.add_string buf
    "# HELP rbgp_ingest_latency_seconds Ingest latency histogram.\n\
     # TYPE rbgp_ingest_latency_seconds histogram\n";
  List.iter
    (fun (labels, r) ->
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if c > 0 then
            Buffer.add_string buf
              (Printf.sprintf "rbgp_ingest_latency_seconds_bucket%s %d\n"
                 (ref_labels_le labels
                    (Printf.sprintf "%g" ((2.0 ** float_of_int (i + 1)) *. 1e-9)))
                 !cum))
        r.rb;
      Buffer.add_string buf
        (Printf.sprintf
           "rbgp_ingest_latency_seconds_bucket%s %d\n\
            rbgp_ingest_latency_seconds_sum%s %.9g\n\
            rbgp_ingest_latency_seconds_count%s %d\n"
           (ref_labels_le labels "+Inf") r.rn (ref_labels labels)
           (r.rsum *. 1e-9) (ref_labels labels) r.rn))
    series;
  Buffer.contents buf

(* [s] with the value after [key] (up to the next ',' or '}') replaced
   by "_" *)
let mask_value key s =
  match Astring.String.cut ~sep:key s with
  | None -> s
  | Some (before, after) ->
      let stop =
        match Astring.String.find (fun c -> c = ',' || c = '}') after with
        | Some i -> i
        | None -> String.length after
      in
      before ^ key ^ "_" ^ Astring.String.with_index_range ~first:stop after

(* An exposition with the value of every [rbgp_uptime_seconds] sample
   replaced by "_". *)
let mask_uptime s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         if Astring.String.is_prefix ~affix:"rbgp_uptime_seconds" line then
           match String.rindex_opt line ' ' with
           | Some i -> String.sub line 0 (i + 1) ^ "_"
           | None -> line
         else line)
  |> String.concat "\n"

let qcheck_metrics_match_float_reference =
  let latency =
    QCheck2.Gen.(
      oneof
        [
          int_range (-5) 5;
          int_range 0 5_000;
          int_range 0 (1 lsl 40);
          map (fun k -> 1 lsl k) (int_range 0 40);
          map (fun k -> (1 lsl k) - 1) (int_range 1 40);
        ])
  in
  let op =
    QCheck2.Gen.(
      frequency
        [
          ( 8,
            map
              (fun (lat, comm, moved, max_load) ->
                Obs (lat, comm, moved, max_load))
              (tup4 latency (int_range 0 1) (int_range 0 3) (int_range 0 50)) );
          ( 8,
            map
              (fun ((count, lat), (comm, mig, max_load)) ->
                Batch (count, lat, comm, mig, max_load))
              (pair
                 (pair (int_range 0 64) latency)
                 (triple (int_range 0 64) (int_range 0 64) (int_range 0 50))) );
          (1, return Degraded);
          (1, return Recovered);
        ])
  in
  let labels =
    [
      [ ("tenant", "t"); ("alg", "onl-dynamic") ];
      [];
      [ ("tenant", "a\\b\"c\nd") ];
    ]
  in
  qtest ~count:300 "metrics JSONL and histogram == float-sum reference"
    QCheck2.Gen.(
      list_repeat (List.length labels) (list_size (int_range 0 200) op))
    (fun op_lists ->
      let run ops =
        let m = Metrics.create () in
        let r =
          {
            rb = Array.make 63 0;
            rn = 0;
            rcomm = 0;
            rmig = 0;
            rmax = 0;
            rsum = 0.0;
            rdeg = 0;
            rrec = 0;
          }
        in
        List.iter
          (fun op ->
            ref_apply r op;
            metrics_apply m op)
          ops;
        (m, r)
      in
      let runs = List.map run op_lists in
      let json_ok (m, r) =
        let json =
          mask_value "\"elapsed_s\":"
            (mask_value "\"rps\":" (Metrics.json_of_snapshot (Metrics.snapshot m)))
        in
        let mean = if r.rn = 0 then 0.0 else r.rsum /. float_of_int r.rn in
        String.equal json (ref_json r)
        && Float.equal (Metrics.mean_latency_ns m) mean
      in
      let prom =
        let buf = Buffer.create 4096 in
        Metrics.prometheus_exposition buf
          (List.map2 (fun l (m, _) -> (l, Metrics.snapshot m)) labels runs);
        Buffer.contents buf
      in
      List.for_all json_ok runs
      && String.equal (mask_uptime prom)
           (ref_exposition (List.map2 (fun l (_, r) -> (l, r)) labels runs)))

(* The exposition's digit writer against [%d], the extremes included. *)
let qcheck_metrics_add_int =
  qtest ~count:2000 "metrics add_int == %d"
    QCheck2.Gen.(
      oneof
        [
          int;
          int_range (-1000) 1000;
          oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 9; 10 ];
        ])
    (fun n ->
      let buf = Buffer.create 24 in
      Metrics.add_int buf n;
      String.equal (Buffer.contents buf) (Printf.sprintf "%d" n))

(* --- capacity check --------------------------------------------------- *)

(* Overloading a server between requests, past never-move's claimed
   augmentation of 1, is caught by the very next ingest: the stepper
   checks capacity on every request and raises [Failure] naming the
   step.  never-move keeps its hands off the assignment, so the overload
   survives until the check. *)
let test_capacity_check_catches_corruption () =
  let inst = Instance.blocks ~n:8 ~ell:2 in
  let e = Engine.create ~alg:"never-move" ~seed:1 inst in
  ignore (Engine.ingest e 0);
  let a = (Engine.online e).Online.assignment () in
  for p = 0 to 7 do
    Assignment.set a p 0
  done;
  match Engine.ingest e 1 with
  | _ -> Alcotest.fail "an overloaded server was not flagged"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names step 1: %s" msg)
        true
        (Astring.String.is_infix ~affix:"at step 1 (" msg)

let () =
  Alcotest.run "serve"
    [
      ( "engine",
        [
          Alcotest.test_case "matches batch simulator" `Quick
            test_engine_matches_simulator;
          Alcotest.test_case "decision records are cumulative" `Quick
            test_engine_decisions_cumulative;
          Alcotest.test_case
            "pinned decision + checkpoint digests (4 solvers, onl-static)"
            `Quick test_pinned_digests;
          qcheck_decision_to_json;
          Alcotest.test_case "advance == step (scalar stepper API)" `Quick
            test_advance_matches_step;
          Alcotest.test_case "serve-path allocation budget" `Quick
            test_serve_path_allocation;
          Alcotest.test_case "overloaded server caught at next ingest"
            `Quick test_capacity_check_catches_corruption;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume == uninterrupted (all algs, both \
                              restore paths)" `Quick
            test_checkpoint_resume_all_algorithms;
          Alcotest.test_case "every algorithm has both state hooks" `Quick
            test_every_algorithm_has_state_hooks;
          Alcotest.test_case "tampered snapshots rejected" `Quick
            test_resume_detects_tampering;
          Alcotest.test_case "pinned alg_state digests (9 algorithms)" `Quick
            test_pinned_alg_states;
          Alcotest.test_case "file roundtrip + truncation" `Quick
            test_checkpoint_file_roundtrip;
          qcheck_checkpoint_resume;
          Alcotest.test_case "size is O(state), flat in T" `Quick
            test_checkpoint_size_flat;
        ] );
      ( "batched",
        [
          Alcotest.test_case "batched == per-request (all algs)" `Quick
            test_batched_matches_per_request;
          Alcotest.test_case "prepared batch is order-enforced" `Quick
            test_prepare_rejects_out_of_order;
          qcheck_batches_identity;
        ] );
      ( "block",
        [
          qcheck_advance_block_matches_step;
          Alcotest.test_case "non-strict fixtures: cached load, shadow" `Quick
            test_block_fixtures;
          Alcotest.test_case "quiet block validates before billing" `Quick
            test_quiet_block_validates_first;
          qcheck_digest_block;
        ] );
      ( "codec",
        [
          qcheck_binary_text_roundtrip;
          Alcotest.test_case "torn frame detected" `Quick
            test_codec_detects_torn_frame;
          Alcotest.test_case "wrong n rejected" `Quick test_codec_rejects_wrong_n;
          Alcotest.test_case "text errors name the path" `Quick
            test_trace_io_error_names_path;
        ] );
      ( "source",
        [
          Alcotest.test_case "mmap auto-detection and kinds" `Quick
            test_source_mmap_kinds;
          Alcotest.test_case "format sniff reads the served bytes" `Quick
            test_source_format_sniff;
          Alcotest.test_case "a missing file is a Sys_error naming it" `Quick
            test_source_missing_file;
          Alcotest.test_case "next_batch == trace (both backends)" `Quick
            test_source_next_batch_matches_trace;
          Alcotest.test_case "quiet batches == instrumented batches" `Quick
            test_quiet_batch_identity;
          Alcotest.test_case "mmap == channel end to end" `Quick
            test_source_mmap_vs_channel_serve_identity;
          Alcotest.test_case "binary and text sources agree" `Quick
            test_source_binary_and_text_agree;
          Alcotest.test_case "owned channel closed on header error" `Quick
            test_source_owned_channel_closed_on_header_error;
          Alcotest.test_case "pipe EOF mid-frame is a torn frame" `Quick
            test_source_pipe_eof_mid_frame;
          Alcotest.test_case "bad frames: mmap == channel, byte for byte"
            `Quick test_source_bad_frame_parity;
          Alcotest.test_case "skip-prefix verifies the stream digest" `Quick
            test_consume_prefix_digest;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log-bucketed histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "O(1) bucket index == shift loop" `Quick
            test_metrics_bucket_index;
          qcheck_metrics_match_float_reference;
          qcheck_metrics_add_int;
        ] );
    ]
