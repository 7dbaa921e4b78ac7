(* The two single-engine workloads, served straight into Rbgp_serve.Engine
   from a framed binary trace file on the mmap source.

   ingest-never-move: blocks of 4096 into Engine.ingest_batch_quiet with
   the never-move algorithm.  The solver does nothing, so decode,
   simulator accounting, engine bookkeeping and replay-prefix growth are
   what is measured.

   serve-onl-dynamic: the default `rbgp serve` path.  onl-dynamic, one
   request per Engine.ingest (the algorithm's serve closure, not its batch
   hook), every decision rendered with Engine.decision_to_json into an
   in-memory buffer and a Metrics.to_json record every 1000 requests.
   Solver-bound, with per-request metrics and JSONL on top. *)

open Common
module Engine = Rbgp_serve.Engine
module Source = Rbgp_serve.Source
module Checkpoint = Rbgp_serve.Checkpoint
module Metrics = Rbgp_serve.Metrics
module Registry = Rbgp_serve.Registry
module Simulator = Rbgp_ring.Simulator
module Instance = Rbgp_ring.Instance
module Online = Rbgp_ring.Online
module Assignment = Rbgp_ring.Assignment
module Cost = Rbgp_ring.Cost

type spec = {
  name : string;
  alg : string;
  steps : int;
  tiny_steps : int;
  block : int;  (** source pull size; also the metrics cadence when not [batched] *)
  batched : bool;  (** quiet batches (true) or one Engine.ingest per request *)
}

let ingest_never_move =
  { name = "ingest-never-move"; alg = "never-move"; steps = 4_000_000;
    tiny_steps = 20_000; block = 4096; batched = true }

let serve_onl_dynamic =
  { name = "serve-onl-dynamic"; alg = "onl-dynamic"; steps = 300_000;
    tiny_steps = 5_000; block = 1000; batched = false }

let n = 4096
let ell = 32

type setup = { path : string; inst : Instance.t; steps : int }

let setup spec ctx ~steps () =
  let trace = rotating ~n ~steps (Rng.create ctx.seed) in
  let path = write_trace ctx ~name:(spec.name ^ ".rbgt") ~n ~ell trace in
  { path; inst = Instance.blocks ~n ~ell; steps }

(* One batch of the per-request path: ingest, render, and one metrics
   record per block. *)
let serve_block engine out buf got calls =
  for j = 0 to got - 1 do
    incr Span.request;
    let c0 = Clock.now_ns () in
    Span.enter Span.Engine;
    let d = Engine.ingest engine buf.(j) in
    Span.leave ();
    Hist.record calls (Clock.now_ns () - c0);
    Span.enter Span.Jsonl;
    Buffer.add_string out (Engine.decision_to_json d);
    Buffer.add_char out '\n';
    Span.leave ()
  done;
  Span.enter Span.Metrics_json;
  Buffer.add_string out (Metrics.to_json (Engine.metrics engine));
  Buffer.add_char out '\n';
  Span.leave ();
  Buffer.clear out

(* One pass: a fresh engine, the whole file through the mmap source.
   [after_block] (the traced run's recomposition) sees each block's edges
   right after the engine has served them. *)
let pass ?(after_block = fun _ _ -> ()) spec ctx s calls =
  let engine = Engine.create ~alg:spec.alg ~seed:ctx.seed s.inst in
  let out = Buffer.create (1 lsl 20) in
  let buf = Array.make spec.block 0 in
  let t0 = Clock.now_ns () in
  Span.enter Span.Source;
  let src = Source.open_file ~mmap:`On ~n s.path in
  Span.leave ();
  let continue = ref true in
  while !continue do
    Span.enter Span.Source;
    let got = Source.next_batch src buf ~limit:spec.block in
    Span.leave ();
    if got = 0 then continue := false
    else begin
      if spec.batched then begin
        let edges = if got = spec.block then buf else Array.sub buf 0 got in
        incr Span.request;
        let c0 = Clock.now_ns () in
        Span.enter Span.Engine;
        Engine.ingest_batch_quiet engine edges;
        Span.leave ();
        Hist.record calls (Clock.now_ns () - c0);
        Res.attempt ctx.res
      end
      else begin
        serve_block engine out buf got calls;
        Res.attempt ~n:got ctx.res
      end;
      after_block buf got
    end
  done;
  Source.close src;
  (engine, Clock.seconds_since t0)

(* The traced run's recomposition: the Registry-built algorithm driven by
   the simulator directly, over the same blocks as the engine pass and
   interleaved with it block by block, so that both see the same host
   speed.  Each block is served once by an algorithm alone (solver time)
   and once by another under the stepper (Simulator.prepare on the batched
   path, Simulator.step per request otherwise), followed by the metrics
   record the engine would make.  The whole of it runs inside a Probe span,
   which is taken out of the traced wall.  It must end in the engine
   pass's exact result and assignment. *)
type recomposition = {
  solo : Online.t;
  online : Online.t;
  stepper : Simulator.stepper;
  metrics : Metrics.t;
  comm : int array;
  moved : int array;
}

let recomposition spec ctx s =
  let build () =
    (Registry.find spec.alg).Registry.build ~epsilon:0.5 ~seed:ctx.seed s.inst
  in
  let solo = build () and online = build () in
  { solo; online; stepper = Simulator.stepper s.inst online; metrics = Metrics.create ();
    comm = Array.make spec.block 0; moved = Array.make spec.block 0 }

let recompose_block spec rc buf len =
  Span.enter Span.Probe;
  (* no copy of a full block: a major-heap allocation per block would put
     GC work into the engine's spans *)
  let b = if len = Array.length buf then buf else Array.sub buf 0 len in
  Span.enter Span.Solver;
  for j = 0 to len - 1 do
    rc.solo.Online.serve b.(j)
  done;
  Span.leave ();
  Option.iter Assignment.journal_clear rc.solo.Online.journal;
  let before = (Simulator.stepper_result rc.stepper).Simulator.cost in
  let c0 = before.Cost.comm and m0 = before.Cost.mig in
  Span.enter Span.Simulator;
  if spec.batched then begin
    let play = Simulator.prepare rc.stepper b in
    for j = 0 to len - 1 do
      ignore (play j)
    done
  end
  else
    for j = 0 to len - 1 do
      let c, mv = Simulator.step rc.stepper b.(j) in
      rc.comm.(j) <- c;
      rc.moved.(j) <- mv
    done;
  Span.leave ();
  let r = Simulator.stepper_result rc.stepper in
  let max_load = r.Simulator.max_load in
  Span.enter Span.Metrics_obs;
  if spec.batched then
    Metrics.observe_batch rc.metrics ~count:len ~latency_ns:0
      ~comm:(r.Simulator.cost.Cost.comm - c0)
      ~mig:(r.Simulator.cost.Cost.mig - m0) ~max_load
  else
    for j = 0 to len - 1 do
      Metrics.observe rc.metrics ~latency_ns:0 ~comm:rc.comm.(j) ~moved:rc.moved.(j) ~max_load
    done;
  Span.leave ();
  Span.leave ()

let check_recomposition spec ctx rc engine =
  let same_assignment a =
    Assignment.to_array (a.Online.assignment ()) = Engine.assignment engine
  in
  Res.check ctx.res (spec.name ^ ": recomposed pass ends in the engine's result")
    (Simulator.stepper_result rc.stepper = Engine.result engine);
  Res.check ctx.res (spec.name ^ ": recomposed pass ends in the engine's assignment")
    (same_assignment rc.online && same_assignment rc.solo)

(* Batched ≡ per-request: the same file through the other engine path
   ends in byte-identical checkpoint bytes. *)
let oracle spec ctx s engine =
  let twin = Engine.create ~alg:spec.alg ~seed:ctx.seed s.inst in
  let src = Source.open_file ~n s.path in
  let buf = Array.make 4096 0 in
  let rec loop () =
    let got = Source.next_batch src buf ~limit:4096 in
    if got > 0 then begin
      let edges = if got = 4096 then buf else Array.sub buf 0 got in
      if spec.batched then Array.iter (fun e -> ignore (Engine.ingest twin e)) edges
      else Engine.ingest_batch_quiet twin edges;
      loop ()
    end
  in
  loop ();
  Source.close src;
  let bytes = Checkpoint.to_string (Engine.checkpoint engine) in
  Res.check ctx.res (spec.name ^ ": batched ≡ per-request checkpoint bytes")
    (String.equal bytes (Checkpoint.to_string (Engine.checkpoint twin)));
  bytes

let run spec ctx =
  let steps = if ctx.tiny then spec.tiny_steps else spec.steps in
  let setups, s = setup_thrice (setup spec ctx ~steps) in
  let gc = ref [] and last = ref None in
  let passes, calls =
    repeat
      ~seconds:(if ctx.trace then ctx.seconds /. 2. else ctx.seconds)
      ~min_passes:2
      (fun _ calls ->
        (* drop the previous pass's engine first: only the last one is kept *)
        last := None;
        let (engine, wall), minor, major = gc_during (fun () -> pass spec ctx s calls) in
        gc := (minor /. float_of_int steps, float_of_int major) :: !gc;
        last := Some engine;
        ((), wall))
  in
  let timings = List.map snd passes in
  let engine = Option.get !last in
  let r = ctx.res in
  if not ctx.trace then
    report_e2e ctx ~setup:setups ~passes:timings ~units:(float_of_int steps)
  else begin
    let per_req ns = float_of_int ns /. float_of_int steps in
    report_tail ctx calls timings;
    Res.set r "gc.minor_words_per_req" (median (List.map fst !gc));
    Res.set r "gc.major_collections" (median (List.map snd !gc));
    Gc.full_major ();
    let rc = recomposition spec ctx s in
    let (traced_engine, _), wall =
      Span.traced (fun () ->
          pass ~after_block:(recompose_block spec rc) spec ctx s (Hist.create ()))
    in
    check_recomposition spec ctx rc traced_engine;
    let wall = wall - Span.total_ns Span.Probe in
    overhead ctx ~traced_wall:wall ~untraced:timings;
    let t = Span.total_ns in
    let solver = t Span.Solver and sim = t Span.Simulator - t Span.Solver
    and metrics = t Span.Metrics_obs + t Span.Metrics_json in
    (* the engine's own glue: its span, less the simulator (solver
       included) and the metrics record it makes *)
    let engine_self = t Span.Engine - t Span.Simulator - t Span.Metrics_obs in
    List.iter
      (fun (layer, metric, ns) ->
        Res.set r metric (per_req ns);
        share ctx layer ns ~wall)
      [ ("source", "source.ns_per_req", Span.self_ns Span.Source);
        ("solver", "solver.ns_per_req", solver);
        ("simulator", "simulator.self_ns_per_req", sim);
        ("metrics", "metrics.ns_per_req", metrics);
        ("jsonl", "jsonl.ns_per_req", t Span.Jsonl);
        ("engine", "engine.self_ns_per_req", engine_self) ];
    Res.set r "waterfall.unattributed_frac"
      (float_of_int (Span.self_ns Span.Root) /. float_of_int wall);
    let res = Engine.result engine in
    Res.set r "cost.per_kreq"
      (1000. *. float_of_int (Cost.total res.Simulator.cost)
      /. float_of_int res.Simulator.steps)
  end;
  let bytes = oracle spec ctx s engine in
  if ctx.trace then begin
    Res.set r "checkpoint.bytes" (float_of_int (String.length bytes));
    Res.set r "checkpoint.prefix_len" (float_of_int (Engine.pos engine))
  end
