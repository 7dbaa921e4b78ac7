(* The benchmark harness has four layers:

   1. component micro-benchmarks: one closure per component that the
      experiments exercise (smin gradients, couplings, MTS solver steps,
      offline DPs, slicing/clustering/scheduling steps, whole-algorithm
      request handling).  Measurement is a small in-repo harness (warmup,
      linearly growing iteration counts, least-squares through the origin,
      residual-based outlier trimming) — see [measure] below; the earlier
      bechamel-based harness pinned slow functions to a near-constant
      iteration count, which degenerated the regression and produced the
      r^2 collapse recorded in BENCH_3.json.  A component whose fit still
      comes out with r^2 < 0.5 fails the run (exit 1, after the JSON is
      written).

   2. the experiment tables E1-E10 (the reproduction's stand-in for the
      paper's evaluation section), regenerated in quick mode so that a
      single `dune exec bench/main.exe` reproduces every reported table.
      Run `rbgp exp <id>` (without --quick) for the full-size versions.

   3. the domains sweep for the interval-sharded request path: for each
      serve config (large: parallel-worthy batches; quick: batches small
      enough that the pool's auto-grain must keep them sequential) and
      each domain count, per-request vs batched ingest throughput, the
      speedup, and a byte-identity bit (decisions sans latency, final
      result, final assignment).  CI gates on speedup > 1 at 4 domains
      for the large config; on a single-core box the honest local number
      hovers around 1.0 and only the identity bits are load-bearing.

   4. the zero-copy ingest bench: block-decode throughput of the mmap'ed
      region reader vs the buffered channel reader over the same framed
      binary trace, the pull-to-solve pipeline (Source.next_batch feeding
      Engine.ingest_batch_quiet) for a free solver (never-move, the
      pipeline ceiling) and the real one (onl-dynamic, where the solve
      dominates), and mmap-vs-channel identity bits down to byte-equal
      checkpoints.  CI gates on decode_speedup >= 5, the never-move
      pipeline >= 1M req/s, and both identity bits.

   5. the fault-layer overhead bench: the quiet mmap pipeline timed three
      ways — a hook-free hot loop (block decode feeding the engine
      directly, no Source, no fault checks), the Source pipeline with the
      fault layer disabled, and the same pipeline with an armed plan that
      never fires (crash@2e9).  CI gates the disabled-vs-baseline
      overhead below 2%: the crash-safety hooks must be free when off.

   Besides the human-readable tables the run writes BENCH_7.json next to
   the current directory: the BENCH_6 sections (component ns/run + r^2,
   wall-clock seconds per quick-mode experiment, parallel-vs-sequential
   comparisons for E8 and E10 with cold/warm speedups and byte-identity
   checks, streaming-engine throughput with checkpoint/resume identity,
   the "domains_sweep", "ingest" and "faults" sections) plus the new
   "net" section: the socket transport versus the in-process pipe on
   the same quiet batches, 1 and 4 tenants multiplexed over one
   connection, with client-observed RPC latency quantiles and
   per-tenant checkpoint identity.  CI gates the socket throughput
   overhead below 30% of pipe throughput.  The numeric suffix is the
   bench-trajectory slot for this change set; BENCH_1..6.json are
   earlier snapshots and later change sets append BENCH_8.json, ... so
   the files form a machine-readable performance history of the
   repository. *)

let rng = Rbgp_util.Rng.create 20230717

(* --- measurement harness ------------------------------------------- *)

let now_ns () = Unix.gettimeofday () *. 1e9

let time_iters f iters =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  now_ns () -. t0

(* least squares through the origin on (iterations, elapsed ns) points;
   r^2 against the mean-of-y null model, so it is only meaningful when
   the x values actually vary — which the sampling below guarantees *)
let ols_origin pts =
  let sxy = ref 0.0 and sxx = ref 0.0 and sy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sxy := !sxy +. (x *. y);
      sxx := !sxx +. (x *. x);
      sy := !sy +. y)
    pts;
  let slope = !sxy /. !sxx in
  let ybar = !sy /. float_of_int (Array.length pts) in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      let dt = y -. ybar and dr = y -. (slope *. x) in
      ss_tot := !ss_tot +. (dt *. dt);
      ss_res := !ss_res +. (dr *. dr))
    pts;
  let r2 = if !ss_tot <= 0.0 then 1.0 else 1.0 -. (!ss_res /. !ss_tot) in
  (slope, r2)

(* per-test budget: enough samples for a stable fit without dragging the
   whole bench run past CI patience *)
let sample_budget_ns = 0.4 *. 1e9

let measure f =
  for _ = 1 to 3 do
    f ()
  done;
  (* calibrate the per-call cost on a short doubling run *)
  let rec calibrate iters =
    let dt = time_iters f iters in
    if dt > 1e6 || iters >= 1 lsl 20 then dt /. float_of_int iters
    else calibrate (iters * 4)
  in
  let per_call = Float.max 1.0 (calibrate 1) in
  (* sample points at linearly growing iteration counts [step, 2*step, ...,
     s*step]: distinct x values keep the through-origin regression
     well-conditioned even for very slow functions (where s bottoms out at
     5 and step at 1, i.e. x = 1..5) *)
  let tri s = float_of_int (s * (s + 1) / 2) in
  let s =
    let rec shrink s =
      if s <= 5 then 5
      else if tri s *. per_call <= sample_budget_ns then s
      else shrink (s - 1)
    in
    shrink 40
  in
  let step =
    max 1 (int_of_float (sample_budget_ns /. (per_call *. tri s)))
  in
  let pts =
    Array.init s (fun i ->
        let iters = (i + 1) * step in
        (float_of_int iters, time_iters f iters))
  in
  (* trim the fifth of the points that sit farthest (relative residual)
     from a first fit — scheduler blips land in a handful of samples —
     then refit on the survivors *)
  let slope0, _ = ols_origin pts in
  let scored =
    Array.map
      (fun (x, y) -> (Float.abs (y -. (slope0 *. x)) /. x, (x, y)))
      pts
  in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) scored;
  let keep = min (Array.length scored) (max 5 (s * 4 / 5)) in
  let kept = Array.map snd (Array.sub scored 0 keep) in
  ols_origin kept

(* --- component fixtures -------------------------------------------- *)

let k = 256
let smin_x = Array.init k (fun i -> float_of_int ((i * 7919) mod 97))

let dist_a =
  Rbgp_util.Dist.of_weights (Array.init k (fun i -> float_of_int (1 + (i mod 7))))

let dist_b =
  Rbgp_util.Dist.of_weights
    (Array.init k (fun i -> float_of_int (1 + ((i + 3) mod 11))))

let metric = Rbgp_mts.Metric.Line k
let wfa_solver = Rbgp_mts.Work_function.solver metric ~start:(k / 2) ~rng

let smin_solver =
  Rbgp_mts.Smin_mw.solver metric ~start:(k / 2) ~rng:(Rbgp_util.Rng.split rng)

let hst_solver =
  Rbgp_mts.Hst_mts.solver metric ~start:(k / 2) ~rng:(Rbgp_util.Rng.split rng)

let mts_step solver =
  let i = ref 0 in
  fun () ->
    incr i;
    ignore (Rbgp_mts.Mts.serve solver (!i * 31 mod k))

let offline_reqs = Array.init 512 (fun i -> (i * 131) mod k)
let inst = Rbgp_ring.Instance.blocks ~n:512 ~ell:8
let trace512 = Array.init 4096 (fun i -> (i * 73) mod 512)

(* the E10 comparator shape: exact dynamic OPT on the largest instance the
   experiment uses, pruned vs the retained exhaustive reference *)
let dopt_inst = Rbgp_ring.Instance.blocks ~n:9 ~ell:3
let dopt_table = Rbgp_offline.Dynamic_opt.shared dopt_inst ()
let dopt_trace = Array.init 50 (fun i -> (i * 5) mod 9)

let dyn_alg =
  Rbgp_core.Dynamic_alg.create ~epsilon:0.5 inst (Rbgp_util.Rng.split rng)

let dyn_online = Rbgp_core.Dynamic_alg.online dyn_alg

let st_alg =
  Rbgp_core.Static_alg.create ~epsilon:0.5 inst (Rbgp_util.Rng.split rng)

let st_online = Rbgp_core.Static_alg.online st_alg
let ig = Rbgp_hitting.Interval_growing.create ~k (Rbgp_util.Rng.split rng)

let online_step (online : Rbgp_ring.Online.t) =
  let i = ref 0 in
  fun () ->
    incr i;
    online.Rbgp_ring.Online.serve (!i * 37 mod 512)

let components_spec : (string * (unit -> unit)) list =
  [
    ( "smin: grad_c k=256",
      fun () ->
        ignore (Rbgp_util.Smin.grad_c ~c:(float_of_int k) smin_x) );
    ( "dist: coupled resample k=256",
      fun () ->
        ignore
          (Rbgp_util.Dist.resample_coupled rng ~current:17 ~old_dist:dist_a
             ~new_dist:dist_b) );
    ("mts: wfa step k=256", mts_step wfa_solver);
    ("mts: smin-mw step k=256", mts_step smin_solver);
    ("mts: hst-mw step k=256", mts_step hst_solver);
    ( "mts: offline DP 512 reqs k=256",
      fun () ->
        ignore (Rbgp_mts.Offline.opt_cost_indicators_free metric offline_reqs)
    );
    ( "offline: segmented static OPT n=512",
      fun () -> ignore (Rbgp_offline.Static_opt.segmented inst trace512) );
    ( "offline: dynamic LB n=512 T=4096",
      fun () -> ignore (Rbgp_offline.Lower_bound.dynamic_lb inst trace512 ())
    );
    ( "offline: exact dyn OPT pruned n=9 ell=3 T=50",
      fun () -> ignore (Rbgp_offline.Dynamic_opt.solve dopt_table dopt_trace)
    );
    ( "offline: exact dyn OPT reference n=9 ell=3 T=50",
      fun () ->
        ignore
          (Rbgp_offline.Dynamic_opt.solve ~reference:true dopt_table dopt_trace)
    );
    ( "offline: interval OPT_R n=512 T=4096",
      fun () ->
        ignore
          (Rbgp_offline.Lower_bound.interval_opt inst trace512 ~shift:0
             ~epsilon:0.5) );
    ("core: onl-dynamic serve n=512", online_step dyn_online);
    ("core: onl-static serve n=512", online_step st_online);
    ( "hitting: interval-growing serve k=256",
      let i = ref 0 in
      fun () ->
        incr i;
        ignore (Rbgp_hitting.Interval_growing.serve ig (!i * 97 mod k)) );
  ]

let run_benchmarks () =
  let tbl = Rbgp_util.Tbl.create ~headers:[ "benchmark"; "time/run"; "r2" ] in
  let components =
    List.map
      (fun (name, f) ->
        let est, r2 = measure f in
        let human t =
          if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
          else Printf.sprintf "%.0f ns" t
        in
        Rbgp_util.Tbl.add_row tbl
          [ name; human est; Printf.sprintf "%.3f" r2 ];
        (name, est, r2))
      components_spec
  in
  print_endline
    "component micro-benchmarks (growing-iteration OLS through origin):";
  Rbgp_util.Tbl.print tbl;
  components

(* --- machine-readable trajectory ----------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

(* redirect stdout to [path] while [f] runs (the experiment tables print
   directly); used both to time table generation quietly and to compare
   sequential vs parallel output byte for byte *)
let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type parallel_result = {
  experiment : string;
  domains : int;
  seq_seconds : float;
  cold_seconds : float;  (* pool shut down first: domain spawn in the timing *)
  warm_seconds : float;  (* pool pre-warmed before the timing *)
  identical : bool;  (* seq, cold and warm outputs byte-identical *)
}

(* Sequential vs RBGP_DOMAINS-style fan-out for one experiment.  The cold
   measurement shuts the persistent pool down first, so it pays domain
   spawn inside the timed region (what PR-1 measured, and the number that
   made the old pool look like an algorithmic regression); the warm
   measurement pre-warms the pool, isolating the steady-state speedup the
   harness actually sees after the first table.  All three outputs must be
   byte-identical — the pool's key guarantee.  On a single-core box both
   speedups hover around 1.0. *)
let parallel_check id =
  let domains = 4 in
  let run_with d path =
    Rbgp_util.Pool.set_domains (Some d);
    let (), dt =
      timed (fun () ->
          with_stdout_to path (fun () ->
              Rbgp_harness.Report.run ~quick:true ~seed:42 id))
    in
    Rbgp_util.Pool.set_domains None;
    (read_file path, dt)
  in
  let tmp tag = Filename.temp_file (Printf.sprintf "rbgp_%s_%s" id tag) ".txt" in
  let seq_out, seq_dt = run_with 1 (tmp "seq") in
  Rbgp_util.Pool.shutdown ();
  let cold_out, cold_dt = run_with domains (tmp "cold") in
  Rbgp_util.Pool.warmup ~domains ();
  let warm_out, warm_dt = run_with domains (tmp "warm") in
  let identical =
    String.equal seq_out cold_out && String.equal seq_out warm_out
  in
  Printf.printf
    "parallel check (%s quick): sequential %.2fs, %d domains cold %.2fs \
     (%.2fx) / warm %.2fs (%.2fx), outputs %s\n"
    (String.uppercase_ascii id)
    seq_dt domains cold_dt (seq_dt /. cold_dt) warm_dt (seq_dt /. warm_dt)
    (if identical then "identical" else "DIFFERENT");
  {
    experiment = id;
    domains;
    seq_seconds = seq_dt;
    cold_seconds = cold_dt;
    warm_seconds = warm_dt;
    identical;
  }

(* --- serving engine throughput -------------------------------------- *)

type serve_result = {
  requests : int;
  rps : float;
  p50_ns : int;
  p99_ns : int;
  serve_comm : int;
  serve_mig : int;
  resume_identical : bool;
}

(* End-to-end ingest throughput through the streaming engine — the number
   `rbgp serve` reports as req/s — plus a mid-stream checkpoint/resume
   identity check: the resumed engine must finish with exactly the costs
   and assignment of the uninterrupted run.  The checkpoint round-trips
   through its binary encoding so the measurement covers the real
   serialization path. *)
let serve_bench () =
  let n = 512 and ell = 8 and steps = 100_000 and seed = 42 in
  let sinst = Rbgp_ring.Instance.blocks ~n ~ell in
  let trace =
    match Rbgp_workloads.Workloads.rotating ~n ~steps (Rbgp_util.Rng.create 7) with
    | Rbgp_ring.Trace.Fixed a -> a
    | Rbgp_ring.Trace.Adaptive _ -> assert false
  in
  let engine = Rbgp_serve.Engine.create ~alg:"onl-dynamic" ~seed sinst in
  Array.iter (fun e -> ignore (Rbgp_serve.Engine.ingest engine e)) trace;
  let m = Rbgp_serve.Engine.metrics engine in
  let r = Rbgp_serve.Engine.result engine in
  let resume_identical =
    let cut = steps / 2 in
    let first = Rbgp_serve.Engine.create ~alg:"onl-dynamic" ~seed sinst in
    Array.iter
      (fun e -> ignore (Rbgp_serve.Engine.ingest first e))
      (Array.sub trace 0 cut);
    let ckpt =
      Rbgp_serve.Checkpoint.of_string
        (Rbgp_serve.Checkpoint.to_string (Rbgp_serve.Engine.checkpoint first))
    in
    match Rbgp_serve.Engine.resume ckpt with
    | resumed ->
        Array.iter
          (fun e -> ignore (Rbgp_serve.Engine.ingest resumed e))
          (Array.sub trace cut (steps - cut));
        let rr = Rbgp_serve.Engine.result resumed in
        rr.Rbgp_ring.Simulator.cost = r.Rbgp_ring.Simulator.cost
        && rr.Rbgp_ring.Simulator.max_load = r.Rbgp_ring.Simulator.max_load
        && Rbgp_serve.Engine.assignment resumed
           = Rbgp_serve.Engine.assignment engine
    | exception Failure _ -> false
  in
  let sr =
    {
      requests = Rbgp_serve.Metrics.requests m;
      rps = Rbgp_serve.Metrics.rps m;
      p50_ns = Rbgp_serve.Metrics.quantile m 0.5;
      p99_ns = Rbgp_serve.Metrics.quantile m 0.99;
      serve_comm = r.Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.comm;
      serve_mig = r.Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.mig;
      resume_identical;
    }
  in
  Printf.printf
    "serve: %d reqs, %.0f req/s, p50 %d ns, p99 %d ns, resume %s\n"
    sr.requests sr.rps sr.p50_ns sr.p99_ns
    (if resume_identical then "identical" else "DIVERGED");
  sr

(* --- domains sweep: interval-sharded batched ingest ------------------ *)

type sweep_config = {
  cfg_name : string;
  cfg_n : int;
  cfg_ell : int;
  cfg_steps : int;
  cfg_batch : int;
  (* small enough that the pool's measured auto-grain must refuse to
     dispatch: the sweep records the observed path for these configs *)
  cfg_expect_sequential : bool;
}

type sweep_point = {
  sp_config : string;
  sp_n : int;
  sp_ell : int;
  sp_requests : int;
  sp_batch : int;
  sp_domains : int;
  sp_seq_rps : float;
  sp_batched_rps : float;
  sp_speedup : float;
  sp_identical : bool;
  sp_sequential_path : bool option;
}

(* everything a decision carries except the wall-clock latency — the
   fields the byte-identity contract covers *)
let decision_sig (d : Rbgp_serve.Engine.decision) =
  Printf.sprintf "%d|%d|%d|%d|%d|%d|%d\n" d.Rbgp_serve.Engine.step
    d.Rbgp_serve.Engine.edge d.Rbgp_serve.Engine.comm
    d.Rbgp_serve.Engine.moved d.Rbgp_serve.Engine.cum_comm
    d.Rbgp_serve.Engine.cum_mig d.Rbgp_serve.Engine.max_load

let decisions_sig ds =
  let buf = Buffer.create (Array.length ds * 16) in
  Array.iter (fun d -> Buffer.add_string buf (decision_sig d)) ds;
  Buffer.contents buf

(* Per-request vs batched ingest for one config across domain counts.
   The per-request baseline is measured once per config — that path never
   dispatches to the pool, so its throughput is domain-independent — and
   every batched run must reproduce its decision stream (sans latency),
   final result and final assignment exactly, at every domain count and
   batch decomposition.  Cost estimates are reset before each point so
   the auto-grain heuristic relearns from scratch (what a fresh process
   would see). *)
let domains_sweep () =
  let cores = Domain.recommended_domain_count () in
  let sweep_domains =
    List.sort_uniq Int.compare [ 1; 2; 4; min cores 8 ]
  in
  let configs =
    [
      {
        cfg_name = "serve-large";
        cfg_n = 4096;
        cfg_ell = 32;
        cfg_steps = 120_000;
        cfg_batch = 1024;
        cfg_expect_sequential = false;
      };
      {
        cfg_name = "serve-quick";
        cfg_n = 256;
        cfg_ell = 8;
        cfg_steps = 30_000;
        cfg_batch = 64;
        cfg_expect_sequential = true;
      };
    ]
  in
  let sweep_config c =
    let inst = Rbgp_ring.Instance.blocks ~n:c.cfg_n ~ell:c.cfg_ell in
    let trace =
      match
        Rbgp_workloads.Workloads.rotating ~n:c.cfg_n ~steps:c.cfg_steps
          (Rbgp_util.Rng.create 7)
      with
      | Rbgp_ring.Trace.Fixed a -> a
      | Rbgp_ring.Trace.Adaptive _ -> assert false
    in
    let seq_eng = Rbgp_serve.Engine.create ~alg:"onl-dynamic" ~seed:42 inst in
    let seq_ds, seq_dt =
      timed (fun () ->
          Array.map (fun e -> Rbgp_serve.Engine.ingest seq_eng e) trace)
    in
    let seq_sig = decisions_sig seq_ds in
    let seq_res = Rbgp_serve.Engine.result seq_eng in
    let seq_asn = Rbgp_serve.Engine.assignment seq_eng in
    let seq_rps = float_of_int c.cfg_steps /. seq_dt in
    List.map
      (fun d ->
        Rbgp_util.Pool.reset_estimates ();
        Rbgp_util.Pool.set_domains (Some d);
        Rbgp_util.Pool.warmup ~domains:d ();
        let eng = Rbgp_serve.Engine.create ~alg:"onl-dynamic" ~seed:42 inst in
        let nbatches = (c.cfg_steps + c.cfg_batch - 1) / c.cfg_batch in
        let out = Array.make nbatches [||] in
        let (), dt =
          timed (fun () ->
              for b = 0 to nbatches - 1 do
                let off = b * c.cfg_batch in
                let len = min c.cfg_batch (c.cfg_steps - off) in
                out.(b) <-
                  Rbgp_serve.Engine.ingest_batch eng (Array.sub trace off len)
              done)
        in
        let went_parallel = Rbgp_util.Pool.last_map_parallel () in
        Rbgp_util.Pool.set_domains None;
        let ds = Array.concat (Array.to_list out) in
        let res = Rbgp_serve.Engine.result eng in
        let identical =
          String.equal (decisions_sig ds) seq_sig
          && res.Rbgp_ring.Simulator.cost = seq_res.Rbgp_ring.Simulator.cost
          && res.Rbgp_ring.Simulator.max_load
             = seq_res.Rbgp_ring.Simulator.max_load
          && Rbgp_serve.Engine.assignment eng = seq_asn
        in
        let batched_rps = float_of_int c.cfg_steps /. dt in
        let sequential_path =
          if c.cfg_expect_sequential then Some (not went_parallel) else None
        in
        Printf.printf
          "domains sweep (%s, n=%d ell=%d batch=%d, %d reqs): d=%d \
           per-request %.0f req/s, batched %.0f req/s (%.2fx), %s%s\n"
          c.cfg_name c.cfg_n c.cfg_ell c.cfg_batch c.cfg_steps d seq_rps
          batched_rps (batched_rps /. seq_rps)
          (if identical then "identical" else "DIVERGED")
          (match sequential_path with
          | Some true -> ", auto-grain kept it sequential"
          | Some false -> ", auto-grain WENT PARALLEL on a small config"
          | None -> "");
        {
          sp_config = c.cfg_name;
          sp_n = c.cfg_n;
          sp_ell = c.cfg_ell;
          sp_requests = c.cfg_steps;
          sp_batch = c.cfg_batch;
          sp_domains = d;
          sp_seq_rps = seq_rps;
          sp_batched_rps = batched_rps;
          sp_speedup = batched_rps /. seq_rps;
          sp_identical = identical;
          sp_sequential_path = sequential_path;
        })
      sweep_domains
  in
  List.concat_map sweep_config configs

(* --- ingest: the zero-copy mmap pipeline ----------------------------- *)

type pipeline_point = {
  pp_alg : string;
  pp_batch : int;
  pp_requests : int;
  pp_rps : float;
}

type ingest_result = {
  ing_requests : int;
  ing_bytes : int;
  ing_mmap_decode_rps : float;
  ing_channel_decode_rps : float;
  ing_decode_speedup : float;
  ing_decode_identical : bool;
  ing_pipeline : pipeline_point list;
  ing_serve_identical : bool;
}

(* The zero-copy ingest headline (introduced in the BENCH_5 slot).

   (a) decode-only throughput of the two trace readers over the same
       framed binary file — the block decoder over an mmap'ed region
       ([Trace_codec.decode_requests_into], no syscalls, no per-byte
       closures) vs the buffered channel reader ([input_request_opt],
       one [input_byte] per varint byte).  Both sides fold the decoded
       edges into count/xor/sum accumulators so the loops stay
       allocation-free and the streams are checked equal.
   (b) pull-to-solve pipeline throughput: [Source.next_batch] from the
       mapped file feeding [Engine.ingest_batch_quiet] — the
       `serve --no-decisions --mmap on` path.  never-move isolates the
       pipeline itself (the solver does no work, like a router that only
       accounts); onl-dynamic is the honest full-solver number, where
       the ~us-per-request solve dominates and the source choice stops
       mattering (EXPERIMENTS.md, ingest sweep).
   (c) an identity bit: serving the same trace quietly from the mmap
       and channel backends must yield byte-identical checkpoints and
       equal final costs.

   CI gates on decode_speedup >= 5, never-move pipeline >= 1M req/s and
   both identity bits. *)
let ingest_bench () =
  let n = 4096 and ell = 32 in
  let steps = 2_000_000 and id_steps = 120_000 in
  let gen s =
    match Rbgp_workloads.Workloads.rotating ~n ~steps:s (Rbgp_util.Rng.create 7) with
    | Rbgp_ring.Trace.Fixed a -> a
    | Rbgp_ring.Trace.Adaptive _ -> assert false
  in
  let path = Filename.temp_file "rbgp_bench_ingest" ".rbt" in
  let id_path = Filename.temp_file "rbgp_bench_ingest_id" ".rbt" in
  Fun.protect ~finally:(fun () ->
      Sys.remove path;
      Sys.remove id_path)
  @@ fun () ->
  Rbgp_workloads.Trace_codec.write ~path ~n ~ell ~seed:7 (gen steps);
  Rbgp_workloads.Trace_codec.write ~path:id_path ~n ~ell ~seed:7 (gen id_steps);
  let bytes = (Unix.stat path).Unix.st_size in
  (* (a) decode-only: same stream digest on both sides *)
  let block = Array.make 65536 0 in
  let decode_mmap () =
    let r = Rbgp_workloads.Trace_codec.map ~path path in
    ignore (Rbgp_workloads.Trace_codec.header_of_region ~path r);
    let count = ref 0 and acc = ref 0 and sum = ref 0 in
    let continue = ref true in
    while !continue do
      let got =
        Rbgp_workloads.Trace_codec.decode_requests_into ~path r ~n block
          ~limit:(Array.length block)
      in
      if got = 0 then continue := false
      else begin
        for j = 0 to got - 1 do
          acc := !acc lxor block.(j);
          sum := !sum + block.(j)
        done;
        count := !count + got
      end
    done;
    (!count, !acc, !sum)
  in
  let decode_channel () =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    ignore (Rbgp_workloads.Trace_codec.input_header ~path ic);
    let count = ref 0 and acc = ref 0 and sum = ref 0 in
    let continue = ref true in
    while !continue do
      match Rbgp_workloads.Trace_codec.input_request_opt ~path ic ~n with
      | Some e ->
          acc := !acc lxor e;
          sum := !sum + e;
          incr count
      | None -> continue := false
    done;
    (!count, !acc, !sum)
  in
  (* page the file in once so both timed passes run against warm cache *)
  ignore (decode_channel ());
  let (mc, macc, msum), mdt = timed decode_mmap in
  let (cc, cacc, csum), cdt = timed decode_channel in
  (* cross-check the single-pull readers against the same digest too:
     region_request_opt (mmap) and fold (channel) must agree with the
     block decoder frame for frame *)
  let decode_identical =
    let r = Rbgp_workloads.Trace_codec.map ~path path in
    ignore (Rbgp_workloads.Trace_codec.header_of_region ~path r);
    let acc = ref 0 and sum = ref 0 and count = ref 0 in
    let continue = ref true in
    while !continue do
      match Rbgp_workloads.Trace_codec.region_request_opt ~path r ~n with
      | Some e ->
          acc := !acc lxor e;
          sum := !sum + e;
          incr count
      | None -> continue := false
    done;
    let _, (ca, cs, cn) =
      Rbgp_workloads.Trace_codec.fold ~path ~n ~init:(0, 0, 0)
        ~f:(fun (a, s, k) e -> (a lxor e, s + e, k + 1))
    in
    mc = steps && cc = steps && macc = cacc && msum = csum
    && !count = steps && !acc = ca && !sum = cs && !count = cn
    && !acc = macc && !sum = msum
  in
  let mmap_rps = float_of_int mc /. mdt
  and chan_rps = float_of_int cc /. cdt in
  Printf.printf
    "ingest decode (%d reqs, %d bytes): mmap block %.0f req/s, channel \
     %.0f req/s (%.1fx), streams %s\n"
    steps bytes mmap_rps chan_rps (mmap_rps /. chan_rps)
    (if decode_identical then "identical" else "DIVERGED");
  (* (b) pull-to-solve pipeline: Source.next_batch -> ingest_batch_quiet *)
  let sinst = Rbgp_ring.Instance.blocks ~n ~ell in
  let pipeline ~alg ~batch ~requests tpath =
    let engine = Rbgp_serve.Engine.create ~alg ~seed:42 sinst in
    let src = Rbgp_serve.Source.open_file ~mmap:`On ~n tpath in
    let buf = Array.make batch 0 in
    let (), dt =
      timed (fun () ->
          let continue = ref true in
          while !continue do
            let got = Rbgp_serve.Source.next_batch src buf ~limit:batch in
            if got = 0 then continue := false
            else
              Rbgp_serve.Engine.ingest_batch_quiet engine
                (if got = batch then buf else Array.sub buf 0 got)
          done)
    in
    Rbgp_serve.Source.close src;
    assert (Rbgp_serve.Engine.pos engine = requests);
    let rps = float_of_int requests /. dt in
    Printf.printf
      "ingest pipeline (mmap, quiet, n=%d ell=%d): %s batch=%d, %d reqs, \
       %.0f req/s\n"
      n ell alg batch requests rps;
    { pp_alg = alg; pp_batch = batch; pp_requests = requests; pp_rps = rps }
  in
  let pipeline_points =
    List.map
      (fun batch -> pipeline ~alg:"never-move" ~batch ~requests:steps path)
      [ 256; 1024; 4096 ]
    @ [ pipeline ~alg:"onl-dynamic" ~batch:1024 ~requests:id_steps id_path ]
  in
  (* (c) mmap-vs-channel serve identity, checkpoints included *)
  let quiet_ckpt mmap =
    let engine = Rbgp_serve.Engine.create ~alg:"onl-dynamic" ~seed:42 sinst in
    let src = Rbgp_serve.Source.open_file ~mmap ~n id_path in
    let buf = Array.make 1024 0 in
    let continue = ref true in
    while !continue do
      let got = Rbgp_serve.Source.next_batch src buf ~limit:1024 in
      if got = 0 then continue := false
      else
        Rbgp_serve.Engine.ingest_batch_quiet engine
          (if got = 1024 then buf else Array.sub buf 0 got)
    done;
    Rbgp_serve.Source.close src;
    ( Rbgp_serve.Checkpoint.to_string (Rbgp_serve.Engine.checkpoint engine),
      Rbgp_serve.Engine.result engine )
  in
  let mck, mres = quiet_ckpt `On and cck, cres = quiet_ckpt `Off in
  let serve_identical =
    String.equal mck cck
    && mres.Rbgp_ring.Simulator.cost = cres.Rbgp_ring.Simulator.cost
    && mres.Rbgp_ring.Simulator.max_load = cres.Rbgp_ring.Simulator.max_load
  in
  Printf.printf
    "ingest serve identity (onl-dynamic, %d reqs): mmap vs channel \
     checkpoints %s\n"
    id_steps
    (if serve_identical then "byte-identical" else "DIVERGED");
  {
    ing_requests = steps;
    ing_bytes = bytes;
    ing_mmap_decode_rps = mmap_rps;
    ing_channel_decode_rps = chan_rps;
    ing_decode_speedup = mmap_rps /. chan_rps;
    ing_decode_identical = decode_identical;
    ing_pipeline = pipeline_points;
    ing_serve_identical = serve_identical;
  }

type faults_point = {
  fp_requests : int;
  fp_baseline_rps : float;
  fp_disabled_rps : float;
  fp_armed_rps : float;
  fp_overhead_frac : float;
  fp_identical : bool;
}

(* The crash-safety promise is that the fault layer costs nothing when it
   is off.  Three timings of the same quiet never-move pipeline over one
   mmap'ed trace:

   - baseline: the hook-free hot loop — [Trace_codec.decode_requests_into]
     feeding [Engine.ingest_batch_quiet] directly, no [Source], no
     [Fault.armed] checks anywhere;
   - disabled: the real `serve --mmap on` path through [Source.next_batch]
     with the fault layer disabled (the shipped default);
   - armed: the same path under `crash@2000000000` — a plan that never
     fires, so the cost is the per-block [request_fault_pending] range
     check plus the per-pull read hooks.

   overhead_frac = (baseline - disabled) / baseline is the number CI
   gates below 0.02; the armed figure is reported alongside so a
   regression in the armed-but-idle path is visible in the history.
   Each timing is best-of-3 to shed scheduler noise, and all three runs
   must end in byte-identical checkpoints. *)
let faults_bench () =
  let n = 4096 and ell = 32 and steps = 1_000_000 in
  let trace =
    match
      Rbgp_workloads.Workloads.rotating ~n ~steps (Rbgp_util.Rng.create 7)
    with
    | Rbgp_ring.Trace.Fixed a -> a
    | Rbgp_ring.Trace.Adaptive _ -> assert false
  in
  let path = Filename.temp_file "rbgp_bench_faults" ".rbt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Rbgp_workloads.Trace_codec.write ~path ~n ~ell ~seed:7 trace;
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let batch = 4096 in
  let block = Array.make batch 0 in
  let finish engine =
    assert (Rbgp_serve.Engine.pos engine = steps);
    Rbgp_serve.Checkpoint.to_string (Rbgp_serve.Engine.checkpoint engine)
  in
  let baseline () =
    let engine = Rbgp_serve.Engine.create ~alg:"never-move" ~seed:42 inst in
    let r = Rbgp_workloads.Trace_codec.map ~path path in
    ignore (Rbgp_workloads.Trace_codec.header_of_region ~path r);
    let continue = ref true in
    while !continue do
      let got =
        Rbgp_workloads.Trace_codec.decode_requests_into ~path r ~n block
          ~limit:batch
      in
      if got = 0 then continue := false
      else
        Rbgp_serve.Engine.ingest_batch_quiet engine
          (if got = batch then block else Array.sub block 0 got)
    done;
    finish engine
  in
  let pipeline () =
    let engine = Rbgp_serve.Engine.create ~alg:"never-move" ~seed:42 inst in
    let src = Rbgp_serve.Source.open_file ~mmap:`On ~n path in
    let continue = ref true in
    while !continue do
      let got = Rbgp_serve.Source.next_batch src block ~limit:batch in
      if got = 0 then continue := false
      else
        Rbgp_serve.Engine.ingest_batch_quiet engine
          (if got = batch then block else Array.sub block 0 got)
    done;
    Rbgp_serve.Source.close src;
    finish engine
  in
  (* warm the page cache before any timed pass *)
  ignore (baseline ());
  (* Interleave the three configs round-robin and keep each config's
     fastest pass: timing each config in consecutive passes lets one
     transient machine stall land entirely on one config and fake a
     large overhead (or a negative one), while under interleaving every
     config samples the same conditions and the minima are comparable. *)
  let rounds = 5 in
  let armed f =
    Fun.protect ~finally:Rbgp_serve.Fault.disable (fun () ->
        Rbgp_serve.Fault.configure "crash@2000000000";
        timed f)
  in
  let base_ck = ref "" and dis_ck = ref "" and armed_ck = ref "" in
  let base_dt = ref infinity
  and dis_dt = ref infinity
  and armed_dt = ref infinity in
  for _ = 1 to rounds do
    let take ck dt (c, d) =
      ck := c;
      if d < !dt then dt := d
    in
    take base_ck base_dt (timed baseline);
    take dis_ck dis_dt (timed pipeline);
    take armed_ck armed_dt (armed pipeline)
  done;
  let rps dt = float_of_int steps /. !dt in
  let base_ck, baseline_rps = (!base_ck, rps base_dt) in
  let dis_ck, disabled_rps = (!dis_ck, rps dis_dt) in
  let armed_ck, armed_rps = (!armed_ck, rps armed_dt) in
  let identical = String.equal base_ck dis_ck && String.equal dis_ck armed_ck in
  let overhead = (baseline_rps -. disabled_rps) /. baseline_rps in
  Printf.printf
    "faults overhead (never-move, quiet, %d reqs): hook-free %.0f req/s, \
     disabled %.0f req/s (%.2f%% overhead), armed-idle %.0f req/s, \
     checkpoints %s\n"
    steps baseline_rps disabled_rps (100. *. overhead) armed_rps
    (if identical then "identical" else "DIVERGED");
  {
    fp_requests = steps;
    fp_baseline_rps = baseline_rps;
    fp_disabled_rps = disabled_rps;
    fp_armed_rps = armed_rps;
    fp_overhead_frac = overhead;
    fp_identical = identical;
  }

type net_point = {
  np_tenants : int;
  np_requests : int;  (* total across all tenants *)
  np_batch : int;
  np_pipe_rps : float;
  np_socket_rps : float;
  np_overhead_frac : float;
  np_p50_ns : int;  (* per-RPC round trip, client-observed *)
  np_p99_ns : int;
  np_identical : bool;
}

(* What the socket costs: the same quiet batches served two ways — the
   in-process pipe (Engine.ingest_batch_quiet driven directly, the PR-6
   pipeline) versus the full networked path (RBGN framing, dechunker,
   select loop, tenant router) over a Unix socket, 1 tenant and then 4
   tenants multiplexed on one connection.  Client and server run in one
   process: the client's [pump] callback single-steps the server
   whenever the client would block, so the timing charges every byte of
   framing, buffering and dispatch but no scheduler handoffs.  Latency
   quantiles are client-observed per-RPC round trips; every tenant's
   final engine checkpoint must be byte-identical to its pipe twin (the
   isolation contract), and CI gates the socket throughput overhead
   below 30% of pipe throughput. *)
let net_bench () =
  let n = 1024 and ell = 16 and steps = 100_000 and batch = 4096 in
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let trace_for seed =
    match Rbgp_workloads.Workloads.rotating ~n ~steps (Rbgp_util.Rng.create seed) with
    | Rbgp_ring.Trace.Fixed a -> a
    | Rbgp_ring.Trace.Adaptive _ -> assert false
  in
  let batches_of trace =
    let rec go pos acc =
      if pos >= Array.length trace then List.rev acc
      else
        let len = min batch (Array.length trace - pos) in
        go (pos + len) (Array.sub trace pos len :: acc)
    in
    go 0 []
  in
  let pipe_run trace =
    let engine = Rbgp_serve.Engine.create ~alg:"onl-dynamic" ~seed:42 inst in
    List.iter (Rbgp_serve.Engine.ingest_batch_quiet engine) (batches_of trace);
    assert (Rbgp_serve.Engine.pos engine = steps);
    Rbgp_serve.Checkpoint.to_string (Rbgp_serve.Engine.checkpoint engine)
  in
  let point tenants =
    let traces = List.init tenants (fun i -> (i, trace_for (100 + i))) in
    let rounds =
      (* round-robin: one batch per tenant per turn, like the client CLI *)
      let per_tenant = List.map (fun (i, t) -> (i, batches_of t)) traces in
      let rec turn acc lists =
        if List.for_all (fun (_, bs) -> bs = []) lists then List.rev acc
        else
          let heads =
            List.filter_map
              (fun (i, bs) ->
                match bs with [] -> None | b :: _ -> Some (i, b))
              lists
          in
          let rest = List.map (fun (i, bs) ->
              (i, match bs with [] -> [] | _ :: tl -> tl)) lists
          in
          turn (heads :: acc) rest
      in
      turn [] per_tenant
    in
    let pipe_pass () = List.map (fun (_, t) -> pipe_run t) traces in
    (* One full socket-served pass over fresh engines: a new router,
       server and connection each time, so repeated passes are
       independent and deterministic (same trace, same seed → same
       checkpoint bytes every pass). *)
    let sock_pass () =
      let sock_path = Filename.temp_file "rbgp_bench_net" ".sock" in
      Sys.remove sock_path;
      let router = Rbgp_serve.Tenant.create () in
      let addr = Rbgp_serve.Net.Unix_sock sock_path in
      let server = Rbgp_serve.Net.server ~router addr in
      Fun.protect ~finally:(fun () -> Rbgp_serve.Net.shutdown server)
      @@ fun () ->
      let cl =
        Rbgp_serve.Net.connect
          ~pump:(fun () -> ignore (Rbgp_serve.Net.step server))
          addr
      in
      List.iter
        (fun (i, _) ->
          ignore
            (Rbgp_serve.Net.open_stream cl ~stream:(i + 1)
               {
                 Rbgp_serve.Proto.tenant = Printf.sprintf "t%d" i;
                 alg = "onl-dynamic";
                 n;
                 ell;
                 epsilon = 0.5;
                 seed = 42;
               }))
        traces;
      let rpc_ns = ref [] in
      let (), dt =
        timed (fun () ->
            List.iter
              (List.iter (fun (i, b) ->
                   let t0 = Unix.gettimeofday () in
                   ignore
                     (Rbgp_serve.Net.request_quiet cl ~stream:(i + 1) b ~pos:0
                        ~len:(Array.length b));
                   let ns =
                     int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
                   in
                   rpc_ns := ns :: !rpc_ns))
              rounds)
      in
      let cks =
        List.map
          (fun (i, _) ->
            match Rbgp_serve.Tenant.find router (Printf.sprintf "t%d" i) with
            | Some tn -> (
                match Rbgp_serve.Tenant.engine tn with
                | Some engine ->
                    Rbgp_serve.Checkpoint.to_string
                      (Rbgp_serve.Engine.checkpoint engine)
                | None -> "released")
            | None -> "missing")
          traces
      in
      Rbgp_serve.Net.close cl;
      (cks, !rpc_ns, dt)
    in
    (* Alternate the two sides and keep each side's fastest pass — the
       same anti-stall discipline as the faults bench: timing pipe and
       socket in separate single passes lets one transient machine stall
       land entirely on one side and fake (or hide) the overhead. *)
    ignore (pipe_pass ());
    let net_rounds = 3 in
    let pipe_cks = ref [] and pipe_dt = ref infinity in
    let sock_cks = ref [] and sock_dt = ref infinity and rpc_ns = ref [] in
    for _ = 1 to net_rounds do
      let cks, dt = timed pipe_pass in
      pipe_cks := cks;
      if dt < !pipe_dt then pipe_dt := dt;
      let cks, rpcs, dt = sock_pass () in
      sock_cks := cks;
      if dt < !sock_dt then begin
        sock_dt := dt;
        rpc_ns := rpcs
      end
    done;
    let pipe_cks = !pipe_cks and pipe_dt = !pipe_dt in
    let sock_cks = !sock_cks and sock_dt = !sock_dt in
    let identical = List.equal String.equal pipe_cks sock_cks in
    let total = tenants * steps in
    let pipe_rps = float_of_int total /. pipe_dt
    and sock_rps = float_of_int total /. sock_dt in
    let lats = Array.of_list !rpc_ns in
    Array.sort Int.compare lats;
    let quantile q =
      if Array.length lats = 0 then 0
      else
        lats.(min (Array.length lats - 1)
                (int_of_float (q *. float_of_int (Array.length lats))))
    in
    let overhead = (pipe_rps -. sock_rps) /. pipe_rps in
    Printf.printf
      "net serve (onl-dynamic quiet, n=%d ell=%d, %d tenant%s, %d reqs): \
       pipe %.0f req/s, socket %.0f req/s (%.1f%% overhead), rpc p50 %.1f \
       us p99 %.1f us, checkpoints %s\n"
      n ell tenants
      (if tenants = 1 then "" else "s")
      total pipe_rps sock_rps (100. *. overhead)
      (float_of_int (quantile 0.5) /. 1e3)
      (float_of_int (quantile 0.99) /. 1e3)
      (if identical then "identical" else "DIVERGED");
    {
      np_tenants = tenants;
      np_requests = total;
      np_batch = batch;
      np_pipe_rps = pipe_rps;
      np_socket_rps = sock_rps;
      np_overhead_frac = overhead;
      np_p50_ns = quantile 0.5;
      np_p99_ns = quantile 0.99;
      np_identical = identical;
    }
  in
  let p1 = point 1 in
  let p4 = point 4 in
  [ p1; p4 ]

let write_bench_json ~components ~experiments ~parallel ~serve ~sweep ~ingest
    ~faults ~net =
  let oc = open_out "BENCH_7.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"rbgp-bench/7\",\n";
  out "  \"components\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r2\": %s}%s\n"
        (json_escape name) (json_num ns) (json_num r2)
        (if i < List.length components - 1 then "," else ""))
    components;
  out "  ],\n  \"experiments\": [\n";
  List.iteri
    (fun i (id, dt) ->
      out "    {\"id\": \"%s\", \"quick_seconds\": %s}%s\n" (json_escape id)
        (json_num dt)
        (if i < List.length experiments - 1 then "," else ""))
    experiments;
  out "  ],\n  \"parallel\": [\n";
  List.iteri
    (fun i p ->
      out
        "    {\"experiment\": \"%s\", \"domains\": %d, \"seq_seconds\": %s, \
         \"cold_par_seconds\": %s, \"warm_par_seconds\": %s, \
         \"cold_speedup\": %s, \"warm_speedup\": %s, \"identical\": %b}%s\n"
        (json_escape p.experiment) p.domains
        (json_num p.seq_seconds) (json_num p.cold_seconds)
        (json_num p.warm_seconds)
        (json_num (p.seq_seconds /. p.cold_seconds))
        (json_num (p.seq_seconds /. p.warm_seconds))
        p.identical
        (if i < List.length parallel - 1 then "," else ""))
    parallel;
  out "  ],\n  \"serve\": [\n";
  out
    "    {\"alg\": \"onl-dynamic\", \"requests\": %d, \"rps\": %s, \
     \"p50_ns\": %d, \"p99_ns\": %d, \"comm\": %d, \"mig\": %d, \
     \"resume_identical\": %b}\n"
    serve.requests (json_num serve.rps) serve.p50_ns serve.p99_ns
    serve.serve_comm serve.serve_mig serve.resume_identical;
  out "  ],\n  \"domains_sweep\": [\n";
  List.iteri
    (fun i p ->
      out
        "    {\"config\": \"%s\", \"n\": %d, \"ell\": %d, \"requests\": %d, \
         \"batch\": %d, \"domains\": %d, \"seq_rps\": %s, \
         \"batched_rps\": %s, \"speedup\": %s, \"identical\": %b, \
         \"sequential_path\": %s}%s\n"
        (json_escape p.sp_config) p.sp_n p.sp_ell p.sp_requests p.sp_batch
        p.sp_domains (json_num p.sp_seq_rps) (json_num p.sp_batched_rps)
        (json_num p.sp_speedup) p.sp_identical
        (match p.sp_sequential_path with
        | Some b -> string_of_bool b
        | None -> "null")
        (if i < List.length sweep - 1 then "," else ""))
    sweep;
  out "  ],\n  \"ingest\": {\n";
  out "    \"requests\": %d,\n    \"bytes\": %d,\n" ingest.ing_requests
    ingest.ing_bytes;
  out "    \"mmap_decode_rps\": %s,\n    \"channel_decode_rps\": %s,\n"
    (json_num ingest.ing_mmap_decode_rps)
    (json_num ingest.ing_channel_decode_rps);
  out "    \"decode_speedup\": %s,\n    \"decode_identical\": %b,\n"
    (json_num ingest.ing_decode_speedup)
    ingest.ing_decode_identical;
  out "    \"pipeline\": [\n";
  List.iteri
    (fun i p ->
      out
        "      {\"alg\": \"%s\", \"batch\": %d, \"requests\": %d, \
         \"rps\": %s}%s\n"
        (json_escape p.pp_alg) p.pp_batch p.pp_requests (json_num p.pp_rps)
        (if i < List.length ingest.ing_pipeline - 1 then "," else ""))
    ingest.ing_pipeline;
  out "    ],\n    \"serve_identical\": %b\n  },\n" ingest.ing_serve_identical;
  out "  \"faults\": {\n";
  out "    \"requests\": %d,\n" faults.fp_requests;
  out "    \"baseline_rps\": %s,\n    \"disabled_rps\": %s,\n"
    (json_num faults.fp_baseline_rps)
    (json_num faults.fp_disabled_rps);
  out "    \"armed_idle_rps\": %s,\n    \"overhead_frac\": %s,\n"
    (json_num faults.fp_armed_rps)
    (json_num faults.fp_overhead_frac);
  out "    \"identical\": %b\n  },\n" faults.fp_identical;
  out "  \"net\": [\n";
  List.iteri
    (fun i p ->
      out
        "    {\"tenants\": %d, \"requests\": %d, \"batch\": %d, \
         \"pipe_rps\": %s, \"socket_rps\": %s, \"overhead_frac\": %s, \
         \"rpc_p50_ns\": %d, \"rpc_p99_ns\": %d, \"identical\": %b}%s\n"
        p.np_tenants p.np_requests p.np_batch
        (json_num p.np_pipe_rps) (json_num p.np_socket_rps)
        (json_num p.np_overhead_frac) p.np_p50_ns p.np_p99_ns p.np_identical
        (if i < List.length net - 1 then "," else ""))
    net;
  out "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_7.json"

let () =
  let components = run_benchmarks () in
  print_endline "\nexperiment tables (quick mode; run `rbgp exp <id>` for full size):";
  (* warm the pool first so the per-experiment wall clocks measure steady
     state rather than charging domain spawn to whichever table runs first *)
  Rbgp_util.Pool.warmup ();
  let experiments =
    List.map
      (fun ((id, _desc, _f) :
             string * string * (?quick:bool -> ?seed:int -> unit -> unit)) ->
        let (), dt =
          timed (fun () -> Rbgp_harness.Report.run ~quick:true ~seed:42 id)
        in
        (id, dt))
      Rbgp_harness.Report.all
  in
  print_newline ();
  let parallel = [ parallel_check "e8"; parallel_check "e10" ] in
  print_newline ();
  let serve = serve_bench () in
  print_newline ();
  let sweep = domains_sweep () in
  print_newline ();
  let ingest = ingest_bench () in
  print_newline ();
  let faults = faults_bench () in
  print_newline ();
  let net = net_bench () in
  write_bench_json ~components ~experiments ~parallel ~serve ~sweep ~ingest
    ~faults ~net;
  (* the fidelity gate: a component whose fit explains less than half the
     variance is a measurement failure, not a data point *)
  let low =
    List.filter (fun (_, _, r2) -> not (r2 >= 0.5)) components
  in
  if low <> [] then begin
    List.iter
      (fun (name, _, r2) ->
        Printf.eprintf "component %s: r^2 %.3f below the 0.5 floor\n" name r2)
      low;
    exit 1
  end
