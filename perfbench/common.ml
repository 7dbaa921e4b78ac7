(* Shared plumbing for the workloads: the run context, timed repetition,
   trace files, stdout capture and GC readings. *)

module Rng = Rbgp_util.Rng
module Trace = Rbgp_ring.Trace

type ctx = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;  (** the traced run: per-layer metrics instead of end-to-end *)
  tiny : bool;  (** self-check sizes *)
  work : string;  (** scratch directory inside the checkout, removed at exit *)
  res : Res.t;
}

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host-speed normalisation.  A shared virtual machine drifts in speed
   by tens of percent over minutes as its neighbours come and go, and a
   raw wall time then mostly measures the neighbours.  So every timed
   pass (and every set-up) is bracketed by a fixed reference kernel —
   bench-side code that calls nothing under test: pointer chasing over a
   256 KiB table plus short-lived allocation, the two things the
   workloads spend their time on — and end-to-end timings are reported
   scaled to a host on which the kernel takes [nominal_ref_ms]: raw time
   x nominal_ref_ms / kernel time.  The raw values are printed on a line
   of their own, and the kernel time is the per-layer metric
   host.ref_ms. *)
let nominal_ref_ms = 40.

let ref_table =
  let n = 1 lsl 15 in
  Array.init n (fun i -> ((i * 7919) + 13) land (n - 1))

let ref_kernel_ms () =
  let t0 = Clock.now_ns () in
  let x = ref 0 and h = ref 0 and mask = Array.length ref_table - 1 in
  for i = 0 to (1 lsl 21) - 1 do
    x := ref_table.(((!x * 5) + i) land mask);
    h := (!h * 31) + !x
  done;
  let l = ref [] in
  for i = 0 to 200_000 do
    l := (i, string_of_int i) :: !l;
    if i land 1023 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (!h, !l));
  float_of_int (Clock.now_ns () - t0) *. 1e-6

(* [f ()] between two kernel runs: its result, raw seconds and the kernel
   time (the mean of the two). *)
let bracketed f =
  let k0 = ref_kernel_ms () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let s = Clock.seconds_since t0 in
  let k1 = ref_kernel_ms () in
  (r, s, (k0 +. k1) /. 2.)

type timing = {
  raw_s : float;
  ref_ms : float;
  p50_ns : float;  (** median call latency within the pass *)
}

let scaled t = t.raw_s *. nominal_ref_ms /. t.ref_ms

(* [f ()] three times; the timings and the last result.  Set-up is
   repeated so that a single slow repetition does not decide setup_s. *)
let setup_thrice f =
  let once () =
    Gc.full_major ();
    let r, raw_s, ref_ms = bracketed f in
    (r, { raw_s; ref_ms; p50_ns = 0. })
  in
  let _, t1 = once () in
  let _, t2 = once () in
  let r, t3 = once () in
  ([ t1; t2; t3 ], r)

(* Passes of the workload until [seconds] have elapsed, at least
   [min_passes] of them: each pass's result with its timing, and every
   call latency of every pass in one histogram.  [f i calls] records its
   call latencies into [calls] and returns its own wall time, which may
   leave out bench-side probes.  A full major GC before each pass keeps
   one pass's garbage from being collected inside the next. *)
let repeat ~seconds ~min_passes f =
  let t0 = Clock.now_ns () and all_calls = Hist.create () in
  let rec go acc i =
    if i >= min_passes && Clock.seconds_since t0 >= seconds then (List.rev acc, all_calls)
    else begin
      Gc.full_major ();
      let calls = Hist.create () in
      let (r, raw_s), _, ref_ms = bracketed (fun () -> f i calls) in
      Hist.merge ~into:all_calls calls;
      go ((r, { raw_s; ref_ms; p50_ns = Hist.quantile calls 0.5 }) :: acc) (i + 1)
    end
  in
  go [] 0

let rotating ~n ~steps rng =
  match Rbgp_workloads.Workloads.rotating ~n ~steps rng with
  | Trace.Fixed a -> a
  | Trace.Adaptive _ -> invalid_arg "rotating: adaptive trace"

let write_trace ctx ~name ~n ~ell trace =
  let path = Filename.concat ctx.work name in
  Rbgp_workloads.Trace_codec.write ~path ~n ~ell ~seed:ctx.seed trace;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Run [f] with file descriptor 1 redirected to [path]. *)
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

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* GC work done by [f]: (minor words allocated, major collections). *)
let gc_during f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  (r, b.Gc.minor_words -. a.Gc.minor_words, b.Gc.major_collections - a.Gc.major_collections)

let rm_rf dir =
  let rec go p =
    match (Unix.lstat p).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go dir

let fresh_dir ctx name =
  let d = Filename.concat ctx.work name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* End-to-end metrics common to every workload, scaled to the nominal
   host (call_p50_us: the median over passes of each pass's scaled
   median); the raw values go to a line of their own. *)
let report_e2e ctx ~setup ~passes ~units =
  let r = ctx.res in
  let med f l = median (List.map f l) in
  let ref_ms = med (fun t -> t.ref_ms) passes in
  let p50_us = med (fun t -> t.p50_ns /. 1000.) passes in
  Res.set r "setup_s" (med scaled setup);
  Res.set r "pass_s" (med scaled passes);
  Res.set r "throughput_rps" (med (fun t -> units /. scaled t) passes);
  Res.set r "call_p50_us" (med (fun t -> t.p50_ns /. 1000. *. nominal_ref_ms /. t.ref_ms) passes);
  Res.set r "heap_peak_mb" (heap_peak_mb ());
  Printf.printf
    "perfbench raw: setup_s=%.6g pass_s=%.6g throughput_rps=%.6g call_p50_us=%.6g \
     ref_ms=%.6g passes=%d\n"
    (med (fun t -> t.raw_s) setup) (med (fun t -> t.raw_s) passes)
    (med (fun t -> units /. t.raw_s) passes) p50_us ref_ms (List.length passes)

(* Per-layer call-tail metrics (measured in the untraced passes of a
   traced run). *)
let report_tail ctx calls passes =
  let pct, v = Hist.tail calls in
  Res.set ctx.res "host.ref_ms" (median (List.map (fun t -> t.ref_ms) passes));
  Res.set ctx.res "call.tail_pct" pct;
  Res.set ctx.res "call.tail_us" (v /. 1000.);
  Res.set ctx.res "call.samples" (float_of_int (Hist.count calls))

let share ctx name ns ~wall =
  Res.set ctx.res ("share." ^ name) (float_of_int ns /. float_of_int wall)

let overhead ctx ~traced_wall ~untraced =
  Res.set ctx.res "trace_overhead_frac"
    ((float_of_int traced_wall *. 1e-9 /. median (List.map (fun t -> t.raw_s) untraced)) -. 1.)
