(* The bench keeps what only it measures.  The serve and ingest paths are
   timed end to end, host-normalised and identity-checked by the
   repository benchmark (perfbench/), and their identity bits are tier-1
   tests (test_serve, test_net).  Five sections:

   1. component micro-benchmarks: one closure per component that the
      experiments exercise (smin gradients, couplings, MTS solver steps,
      offline DPs, whole-algorithm request handling), each fitted by a
      small in-repo harness (warmup, linearly spaced iteration counts
      taken in a fixed shuffled order, least squares through the origin,
      residual-based outlier trimming) — see [measure] below.  The
      earlier bechamel-based harness pinned slow functions to a
      near-constant iteration count, which
      degenerated the regression and produced the r² collapse recorded
      in BENCH_3.json.

   2. the experiment tables E1-E14 (the reproduction's stand-in for the
      paper's evaluation section) in quick mode, each timed, so that one
      `dune exec bench/main.exe` reproduces every reported table; then E8
      and E10 sequentially and on 4 domains, cold and warm pool, whose
      outputs must be byte-identical.  Run `rbgp exp <id>` (without
      --quick) for the full-size versions.

   3. decode: the block decoder over an mmap'ed region against the
      buffered channel reader, over one framed binary trace.

   4. never-move: the quiet mmap pipeline's throughput floor.

   5. net: what the socket transport costs over the in-process pipe.

   Sections 3 and 5 are A/B comparisons run as interleaved pairs
   ([rounds]); section 4 runs one arm the same way.
   Every threshold lives in gates.ml; the gate table prints last, and the
   run exits 1 naming every failed gate.  The run writes BENCH_8.json to
   the current directory, stamped with the host it ran on; BENCH_1..7.json
   are earlier slots of the same trajectory. *)

let rng = Rbgp_util.Rng.create 20230717

(* --- measurement harness ------------------------------------------- *)

let now_ns = Rbgp_util.Clock.now_ns

let time_iters f iters =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  float_of_int (now_ns () - t0)

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
  (* sample points at linearly spaced iteration counts [step, 2*step, ...,
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
  (* the counts are taken in a fixed-seed shuffled order: in increasing
     order, host drift over the 0.4 s would line up with x and bend the
     fit *)
  let counts = Array.init s (fun i -> (i + 1) * step) in
  Rbgp_util.Rng.shuffle (Rbgp_util.Rng.create 0x5eed) counts;
  let pts =
    Array.map (fun iters -> (float_of_int iters, time_iters f iters)) counts
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

(* quick E3's at-scale shape: the windowed upper bound over a uniform
   trace, one segmented static OPT per window of every grid size *)
let e3_inst = Rbgp_ring.Instance.blocks ~n:128 ~ell:8

let e3_trace =
  match
    Rbgp_workloads.Workloads.uniform ~n:128 ~steps:5000
      (Rbgp_util.Rng.create 3)
  with
  | Rbgp_ring.Trace.Fixed a -> a
  | Rbgp_ring.Trace.Adaptive _ -> assert false (* uniform is oblivious *)

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
let ig =
  Rbgp_hitting.Interval_growing.(player (line ~k (Rbgp_util.Rng.split rng)))

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
    ( "offline: windowed dynamic UB n=128 ell=8 T=5000",
      fun () -> ignore (Rbgp_offline.Dynamic_heuristic.best e3_inst e3_trace ())
    );
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
        ig.Rbgp_hitting.Game.serve (!i * 97 mod k) );
  ]

(* --- results ----------------------------------------------------------- *)

module J = Rbgp_lint.Ljson

let num v = if Float.is_finite v then J.Num v else J.Null
let int i = J.Num (float_of_int i)

let interval_json (i : Gates.interval) =
  J.Obj
    [
      ("lo", num i.lo);
      ("median", num i.median);
      ("hi", num i.hi);
      ("pairs", int i.pairs);
    ]

(* One gate evaluated on one reading; [subject] says which fit, tenant
   count or experiment the reading belongs to. *)
type check = { gate : Gates.gate; subject : string; reading : Gates.reading }

let check gate subject reading = { gate; subject; reading }

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
    "component micro-benchmarks (shuffled-iteration OLS through origin):";
  Rbgp_util.Tbl.print tbl;
  ( J.Arr
      (List.map
         (fun (name, est, r2) ->
           J.Obj
             [ ("name", J.Str name); ("ns_per_run", num est); ("r2", num r2) ])
         components),
    List.map
      (fun (name, _, r2) ->
        check Gates.r2 name (Gates.Interval (Gates.point r2)))
      components )

(* --- experiment tables ------------------------------------------------- *)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

let run_experiments () =
  print_endline
    "\nexperiment tables (quick mode; run `rbgp exp <id>` for full size):";
  (* warm the pool first so the per-experiment wall clocks measure steady
     state rather than charging domain spawn to whichever table runs first *)
  Rbgp_util.Pool.warmup ();
  let times =
    List.map
      (fun (id, _, _) ->
        let (), dt =
          timed (fun () -> Rbgp_harness.Report.run ~quick:true ~seed:42 id)
        in
        (id, dt))
      Rbgp_harness.Report.all
  in
  ( J.Arr
      (List.map
         (fun (id, dt) ->
           J.Obj [ ("id", J.Str id); ("quick_seconds", num dt) ])
         times),
    [
      check Gates.e10_quick_s "e10"
        (Gates.Interval (Gates.point (List.assoc "e10" times)));
    ] )

(* redirect stdout to [path] while [f] runs (the experiment tables print
   directly), so that sequential and parallel output compare byte for
   byte *)
let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
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

let with_temp suffix f =
  let path = Filename.temp_file "rbgp_bench" suffix in
  Fun.protect (fun () -> f path) ~finally:(fun () -> Sys.remove path)

(* Sequential vs 4-domain fan-out for one experiment.  The cold run shuts
   the persistent pool down first, so it pays domain spawn inside the
   timed region; the warm run pre-warms the pool, isolating the
   steady-state speedup.  All three outputs must be byte-identical — the
   pool's key guarantee.  On a single-core box both speedups hover around
   1.0. *)
let parallel_check id =
  let domains = 4 in
  with_temp ".txt" @@ fun path ->
  let run_with d =
    Rbgp_util.Pool.set_domains (Some d);
    let (), dt =
      timed (fun () ->
          with_stdout_to path (fun () ->
              Rbgp_harness.Report.run ~quick:true ~seed:42 id))
    in
    Rbgp_util.Pool.set_domains None;
    (read_file path, dt)
  in
  let seq_out, seq_dt = run_with 1 in
  Rbgp_util.Pool.shutdown ();
  let cold_out, cold_dt = run_with domains in
  Rbgp_util.Pool.warmup ~domains ();
  let warm_out, warm_dt = run_with domains in
  let identical =
    String.equal seq_out cold_out && String.equal seq_out warm_out
  in
  Printf.printf
    "parallel check (%s quick): sequential %.2fs, %d domains cold %.2fs \
     (%.2fx) / warm %.2fs (%.2fx), outputs %s\n"
    (String.uppercase_ascii id)
    seq_dt domains cold_dt (seq_dt /. cold_dt) warm_dt (seq_dt /. warm_dt)
    (if identical then "identical" else "DIFFERENT");
  ( J.Obj
      [
        ("experiment", J.Str id);
        ("domains", int domains);
        ("seq_seconds", num seq_dt);
        ("cold_par_seconds", num cold_dt);
        ("warm_par_seconds", num warm_dt);
        ("identical", J.Bool identical);
      ],
    [ check Gates.parallel_identical id (Gates.Bits [| identical |]) ] )

(* --- A/B comparisons --------------------------------------------------- *)

module Codec = Rbgp_workloads.Trace_codec
module Engine = Rbgp_serve.Engine
module Net = Rbgp_serve.Net

(* Run every arm once per round, [rounds] times, each round starting one
   arm later than the last (pairs alternate A B / B A; triples rotate
   A B C / B C A / C A B).  Every arm runs first equally often and a
   transient stall lands on one round rather than on one arm, so each
   round's arms are compared under the same conditions.  An arm returns
   its elapsed seconds and what its identity check compares; round i's
   results come back in the arms' order. *)
let rounds ~rounds arms =
  let m = Array.length arms in
  Array.init rounds (fun i ->
      let ran =
        List.init m (fun j ->
            let a = (i + j) mod m in
            (a, arms.(a) ()))
      in
      Array.init m (fun a -> List.assoc a ran))

(* the median and interval of one value per round *)
let across rs f = Gates.interval (Array.map f rs)
let held bits = Array.fold_left (fun k b -> if b then k + 1 else k) 0 bits

let identity_text bits =
  if held bits = Array.length bits then "identical" else "DIVERGED"

let percent (i : Gates.interval) =
  Printf.sprintf "%.2f%% [%.2f%%, %.2f%%]" (100. *. i.median) (100. *. i.lo)
    (100. *. i.hi)

let rotating ~n ~steps seed =
  match
    Rbgp_workloads.Workloads.rotating ~n ~steps (Rbgp_util.Rng.create seed)
  with
  | Rbgp_ring.Trace.Fixed a -> a
  | Rbgp_ring.Trace.Adaptive _ -> assert false

(* Decode-only throughput of the two trace readers over one framed binary
   file: the block decoder over an mmap'ed region
   ([Trace_codec.decode_requests_into]: no syscalls, no per-byte
   closures) against the buffered channel reader ([input_request_opt]:
   one [input_byte] per varint byte).  Both fold the decoded edges into a
   count/xor/sum digest, so neither loop allocates, and every pass must
   reproduce the digest of the trace that was written.  A pair's value is
   channel time / mmap time. *)
let decode_bench () =
  let n = 4096 and ell = 32 and steps = 500_000 and pairs = 21 in
  let trace = rotating ~n ~steps 7 in
  let expect =
    Array.fold_left
      (fun (c, x, s) e -> (c + 1, x lxor e, s + e))
      (0, 0, 0) trace
  in
  with_temp ".rbt" @@ fun path ->
  Codec.write ~path ~n ~ell ~seed:7 trace;
  let block = Array.make 65536 0 in
  let decode_mmap () =
    let r = Codec.map ~path path in
    ignore (Codec.header_of_region ~path r);
    let count = ref 0 and acc = ref 0 and sum = ref 0 and got = ref 1 in
    while !got > 0 do
      got := Codec.decode_requests_into ~path r ~n block ~limit:65536;
      for j = 0 to !got - 1 do
        acc := !acc lxor block.(j);
        sum := !sum + block.(j)
      done;
      count := !count + !got
    done;
    (!count, !acc, !sum)
  in
  let decode_channel () =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    ignore (Codec.input_header ~path ic);
    let count = ref 0 and acc = ref 0 and sum = ref 0 in
    let continue = ref true in
    while !continue do
      match Codec.input_request_opt ~path ic ~n with
      | Some e ->
          acc := !acc lxor e;
          sum := !sum + e;
          incr count
      | None -> continue := false
    done;
    (!count, !acc, !sum)
  in
  let arm decode () =
    let digest, dt = timed decode in
    (dt, digest = expect)
  in
  (* page the file in once so that every timed pass reads warm cache *)
  ignore (decode_channel ());
  let rs = rounds ~rounds:pairs [| arm decode_mmap; arm decode_channel |] in
  let rps a = across rs (fun r -> float_of_int steps /. fst r.(a)) in
  let mmap_rps = rps 0 and channel_rps = rps 1 in
  let speedup = across rs (fun r -> fst r.(1) /. fst r.(0)) in
  let identical = Array.map (fun r -> snd r.(0) && snd r.(1)) rs in
  Printf.printf
    "decode (%d pairs of %d reqs): mmap block %.0f req/s, channel %.0f \
     req/s, speedup %.2fx [%.2fx, %.2fx], digests %s\n"
    pairs steps mmap_rps.median channel_rps.median speedup.median speedup.lo
    speedup.hi (identity_text identical);
  ( J.Obj
      [
        ("requests", int steps);
        ("bytes", int (Unix.stat path).Unix.st_size);
        ("mmap_rps", interval_json mmap_rps);
        ("channel_rps", interval_json channel_rps);
        ("speedup", interval_json speedup);
      ],
    [
      check Gates.decode_speedup "channel/mmap time" (Gates.Interval speedup);
      check Gates.decode_identical "mmap, channel" (Gates.Bits identical);
    ] )

(* The quiet serving pipeline's floor: the `serve --mmap on
   --no-decisions` path, [Source.next_batch] over one mmap'ed trace
   feeding [Engine.ingest_batch_quiet], under never-move, so that the
   solver does no work and what is timed is decode, accounting, digest
   and engine glue.  Each pass serves the whole trace on a fresh engine
   and times its serving loop only; [passes] of them give the interval
   that the floor reads. *)
let never_move_bench () =
  let n = 4096 and ell = 32 and steps = 500_000 and batch = 4096 in
  let passes = 21 in
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  with_temp ".rbt" @@ fun path ->
  Codec.write ~path ~n ~ell ~seed:7 (rotating ~n ~steps 7);
  let block = Array.make batch 0 in
  let pass () =
    let engine = Engine.create ~alg:"never-move" ~seed:42 inst in
    let src = Rbgp_serve.Source.open_file ~mmap:`On ~n path in
    let serve () =
      let got = ref 1 in
      while !got > 0 do
        got := Rbgp_serve.Source.next_batch src block ~limit:batch;
        if !got > 0 then
          Engine.ingest_batch_quiet engine
            (if !got = batch then block else Array.sub block 0 !got)
      done
    in
    let (), dt = timed serve in
    Rbgp_serve.Source.close src;
    assert (Engine.pos engine = steps);
    dt
  in
  ignore (pass ());
  let rs = rounds ~rounds:passes [| pass |] in
  let rps = across rs (fun r -> float_of_int steps /. r.(0)) in
  Printf.printf
    "never-move (quiet mmap pipeline, %d passes of %d reqs): %.0f req/s \
     [%.0f, %.0f]\n"
    passes steps rps.median rps.lo rps.hi;
  ( J.Obj [ ("requests", int steps); ("rps", interval_json rps) ],
    [ check Gates.never_move_rps "quiet mmap pipeline" (Gates.Interval rps) ]
  )

(* What the socket costs: the same quiet onl-dynamic batches served
   through the in-process pipe ([Engine.ingest_batch_quiet] driven
   directly) and over the full networked path (RBGN framing, byte queues,
   select loop, tenant router) on a Unix socket, [tenants] of them
   multiplexed on one connection, one batch per tenant per turn.  Client
   and server share the process: the client's [pump] steps the server
   whenever the client would block, so the timing charges every byte of
   framing, buffering and dispatch but no scheduler handoffs.  Both arms
   time their request loops only, over the same prebuilt batches: engine
   creation and the final checkpoint stay outside the pipe arm's timing,
   as stream opens and checkpoint reads stay outside the socket arm's.
   A pair's overhead is (pipe rps - socket rps) / pipe rps, and on every
   pair each tenant's final checkpoint must be byte-identical to its pipe
   twin (the isolation contract). *)
let net_bench tenants =
  let n = 1024 and ell = 16 and steps = 100_000 and batch = 4096 in
  let pairs = 61 in
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let traces = Array.init tenants (fun i -> rotating ~n ~steps (100 + i)) in
  let batches_of trace =
    Array.init ((steps + batch - 1) / batch) (fun b ->
        Array.sub trace (b * batch) (min batch (steps - (b * batch))))
  in
  let batches = Array.map batches_of traces in
  let checkpoint engine =
    assert (Engine.pos engine = steps);
    Rbgp_serve.Checkpoint.to_string (Engine.checkpoint engine)
  in
  let pipe () =
    let engines =
      Array.init tenants (fun _ ->
          Engine.create ~alg:"onl-dynamic" ~seed:42 inst)
    in
    let (), dt =
      timed (fun () ->
          Array.iteri
            (fun i engine ->
              Array.iter (Engine.ingest_batch_quiet engine) batches.(i))
            engines)
    in
    (dt, Array.map checkpoint engines)
  in
  let id i = Printf.sprintf "t%d" i in
  (* a new router, server and connection per pass, so passes are
     independent and each ends in the same checkpoint bytes *)
  let socket () =
    let sock_path = Filename.temp_file "rbgp_bench_net" ".sock" in
    Sys.remove sock_path;
    let router = Rbgp_serve.Tenant.create () in
    let addr = Net.Unix_sock sock_path in
    let server = Net.server ~router addr in
    Fun.protect ~finally:(fun () -> Net.shutdown server) @@ fun () ->
    let cl = Net.connect ~pump:(fun () -> ignore (Net.step server)) addr in
    for i = 0 to tenants - 1 do
      ignore
        (Net.open_stream cl ~stream:(i + 1)
           {
             Rbgp_serve.Proto.tenant = id i;
             alg = "onl-dynamic";
             n;
             ell;
             epsilon = 0.5;
             seed = 42;
           })
    done;
    let (), dt =
      timed (fun () ->
          for b = 0 to Array.length batches.(0) - 1 do
            for i = 0 to tenants - 1 do
              let chunk = batches.(i).(b) in
              ignore
                (Net.request_quiet cl ~stream:(i + 1) chunk ~pos:0
                   ~len:(Array.length chunk))
            done
          done)
    in
    let cks =
      Array.init tenants (fun i ->
          match Rbgp_serve.Tenant.find router (id i) with
          | Some tn -> (
              match Rbgp_serve.Tenant.engine tn with
              | Some engine -> checkpoint engine
              | None -> "released")
          | None -> "missing")
    in
    Net.close cl;
    (dt, cks)
  in
  ignore (pipe ());
  let rs = rounds ~rounds:pairs [| pipe; socket |] in
  let total = tenants * steps in
  let rps a = across rs (fun r -> float_of_int total /. fst r.(a)) in
  let pipe_rps = rps 0 and socket_rps = rps 1 in
  let overhead = across rs (fun r -> 1.0 -. (fst r.(0) /. fst r.(1))) in
  let identical =
    Array.map (fun r -> Array.for_all2 String.equal (snd r.(0)) (snd r.(1))) rs
  in
  let subject =
    if tenants = 1 then "1 tenant" else Printf.sprintf "%d tenants" tenants
  in
  Printf.printf
    "net (onl-dynamic quiet, n=%d ell=%d, %s, %d pairs of %d reqs): pipe \
     %.0f req/s, socket %.0f req/s, overhead %s, checkpoints %s\n"
    n ell subject pairs total pipe_rps.median socket_rps.median
    (percent overhead) (identity_text identical);
  ( J.Obj
      [
        ("tenants", int tenants);
        ("requests", int total);
        ("batch", int batch);
        ("pipe_rps", interval_json pipe_rps);
        ("socket_rps", interval_json socket_rps);
        ("overhead_frac", interval_json overhead);
      ],
    [
      check Gates.socket_overhead subject (Gates.Interval overhead);
      check Gates.socket_identical subject (Gates.Bits identical);
    ] )

(* --- host stamp, trajectory file, verdicts ----------------------------- *)

let commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "unknown"

(* one top-level field per line and one array element per line, so that
   trajectory files diff line by line *)
let write_json path fields =
  let oc = open_out path in
  let last = List.length fields - 1 in
  output_string oc "{\n";
  List.iteri
    (fun i (key, v) ->
      let body =
        match v with
        | J.Arr rows ->
            let rows = List.map J.to_string rows in
            "[\n    " ^ String.concat ",\n    " rows ^ "\n  ]"
        | v -> J.to_string v
      in
      Printf.fprintf oc "  %s: %s%s\n" (J.to_string (J.Str key)) body
        (if i < last then "," else ""))
    fields;
  output_string oc "}\n";
  close_out oc

let rule_text = function
  | Gates.Floor b -> Printf.sprintf ">= %g" b
  | Gates.Ceiling b -> Printf.sprintf "< %g" b
  | Gates.Every_pair -> "every pair"

let reading_text = function
  | Gates.Interval i when i.lo = i.hi -> Printf.sprintf "%.4g" i.median
  | Gates.Interval i -> Printf.sprintf "%.4g [%.4g, %.4g]" i.median i.lo i.hi
  | Gates.Bits bits ->
      Printf.sprintf "%d/%d pairs" (held bits) (Array.length bits)

let verdict_json c pass =
  let rule, bound =
    match c.gate.rule with
    | Gates.Floor b -> ("floor", num b)
    | Gates.Ceiling b -> ("ceiling", num b)
    | Gates.Every_pair -> ("every_pair", J.Null)
  in
  let value =
    match c.reading with
    | Gates.Interval i -> interval_json i
    | Gates.Bits bits ->
        J.Obj [ ("held", int (held bits)); ("pairs", int (Array.length bits)) ]
  in
  J.Obj
    [
      ("gate", J.Str c.gate.name);
      ("subject", J.Str c.subject);
      ("rule", J.Str rule);
      ("bound", bound);
      ("value", value);
      ("pass", J.Bool pass);
    ]

let () =
  let host =
    J.Obj
      [
        ("cores", int (Domain.recommended_domain_count ()));
        ("ocaml", J.Str Sys.ocaml_version);
        ("commit", J.Str (commit ()));
      ]
  in
  print_endline ("host: " ^ J.to_string host);
  let components, component_checks = run_benchmarks () in
  let experiments, experiment_checks = run_experiments () in
  print_newline ();
  let parallel = List.map parallel_check [ "e8"; "e10" ] in
  print_newline ();
  let decode, decode_checks = decode_bench () in
  let never_move, never_move_checks = never_move_bench () in
  let net = List.map net_bench [ 1; 4 ] in
  let verdicts =
    List.map
      (fun c -> (c, Gates.passes c.gate c.reading))
      (component_checks @ experiment_checks
      @ List.concat_map snd parallel
      @ decode_checks @ never_move_checks
      @ List.concat_map snd net)
  in
  write_json "BENCH_8.json"
    [
      ("schema", J.Str "rbgp-bench/8");
      ("host", host);
      ("components", components);
      ("experiments", experiments);
      ("parallel", J.Arr (List.map fst parallel));
      ("decode", decode);
      ("never_move", never_move);
      ("net", J.Arr (List.map fst net));
      ("gates", J.Arr (List.map (fun (c, p) -> verdict_json c p) verdicts));
    ];
  print_endline "\nwrote BENCH_8.json\n\ngate table (bench/gates.ml):";
  let tbl =
    Rbgp_util.Tbl.create
      ~headers:[ "gate"; "subject"; "reading"; "rule"; "verdict" ]
  in
  List.iter
    (fun (c, pass) ->
      Rbgp_util.Tbl.add_row tbl
        [
          c.gate.name;
          c.subject;
          reading_text c.reading;
          rule_text c.gate.rule;
          (if pass then "pass" else "FAIL");
        ])
    verdicts;
  Rbgp_util.Tbl.print tbl;
  flush stdout;
  let failed = List.filter (fun (_, pass) -> not pass) verdicts in
  List.iter
    (fun (c, _) ->
      Printf.eprintf "gate %s failed for %s: %s, needs %s\n" c.gate.name
        c.subject (reading_text c.reading) (rule_text c.gate.rule))
    failed;
  (* a gate that no section read fails too, so none can drop out unseen *)
  let unread =
    List.filter
      (fun (g : Gates.gate) ->
        not
          (List.exists
             (fun (c, _) -> String.equal c.gate.name g.name)
             verdicts))
      Gates.table
  in
  List.iter
    (fun (g : Gates.gate) -> Printf.eprintf "gate %s has no reading\n" g.name)
    unread;
  if failed <> [] || unread <> [] then exit 1
