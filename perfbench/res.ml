(* The metric catalogue and one run's result.

   Every name here also appears, with the same unit, in BENCHMARK.json
   (end-to-end metrics under "end_to_end", the rest under "per_layer");
   selfcheck.py verifies the two agree.  A run prints the end-to-end
   metrics without tracing and the per-layer ones with it, as the last
   line of its output. *)

type kind = E2e | Layer

let catalogue =
  [
    ("setup_s", "s", E2e);
    ("throughput_rps", "1/s", E2e);
    ("pass_s", "s", E2e);
    ("call_p50_us", "us", E2e);
    ("heap_peak_mb", "MB", E2e);
    ("source.ns_per_req", "ns", Layer);
    ("solver.ns_per_req", "ns", Layer);
    ("simulator.self_ns_per_req", "ns", Layer);
    ("engine.self_ns_per_req", "ns", Layer);
    ("metrics.ns_per_req", "ns", Layer);
    ("jsonl.ns_per_req", "ns", Layer);
    ("pool.parallel_frac", "frac", Layer);
    ("checkpoint.write_ms", "ms", Layer);
    ("checkpoint.prefix_len", "count", Layer);
    ("checkpoint.bytes", "B", Layer);
    ("resume.ms", "ms", Layer);
    ("resume.read_ms", "ms", Layer);
    ("resume.replayed_reqs", "count", Layer);
    ("net.rpc_self_us", "us", Layer);
    ("net.steps_per_rpc", "count", Layer);
    ("http.scrape_us", "us", Layer);
    ("gc.minor_words_per_req", "words", Layer);
    ("gc.major_collections", "count", Layer);
    ("exp.e3_s", "s", Layer);
    ("exp.e8_s", "s", Layer);
    ("exp.e10_s", "s", Layer);
    ("call.tail_us", "us", Layer);
    ("call.tail_pct", "%", Layer);
    ("call.samples", "count", Layer);
    ("host.ref_ms", "ms", Layer);
    ("cost.per_kreq", "1/kreq", Layer);
    ("trace_overhead_frac", "frac", Layer);
    ("waterfall.unattributed_frac", "frac", Layer);
    ("share.source", "frac", Layer);
    ("share.solver", "frac", Layer);
    ("share.simulator", "frac", Layer);
    ("share.engine", "frac", Layer);
    ("share.metrics", "frac", Layer);
    ("share.jsonl", "frac", Layer);
    ("share.rpc", "frac", Layer);
    ("share.net_step", "frac", Layer);
    ("share.checkpoint", "frac", Layer);
    ("share.resume", "frac", Layer);
    ("share.http", "frac", Layer);
    ("share.exp", "frac", Layer);
  ]

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { values = Hashtbl.create 64; attempted = 0; failed = 0 }

let set t name v =
  if not (List.exists (fun (n, _, _) -> String.equal n name) catalogue) then
    invalid_arg ("Res.set: metric not in the catalogue: " ^ name);
  Hashtbl.replace t.values name v

let attempt ?(n = 1) t = t.attempted <- t.attempted + n

(* One identity oracle or output check: counted as attempted, and as
   failed when it does not hold. *)
let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let fail t what =
  t.failed <- t.failed + 1;
  Printf.eprintf "perfbench: failed: %s\n%!" what

(* The result line.  End-to-end metrics must all have been set; per-layer
   metrics of a layer the workload never calls read 0. *)
let to_json t ~trace =
  let want = if trace then Layer else E2e in
  let metrics =
    List.filter_map
      (fun (name, unit, kind) ->
        if kind <> want then None
        else
          let v =
            match Hashtbl.find_opt t.values name with
            | Some v when Float.is_finite v -> v
            | Some _ ->
                fail t ("non-finite value for " ^ name);
                0.
            | None when kind = Layer -> 0.
            | None ->
                fail t ("missing end-to-end metric " ^ name);
                0.
          in
          Some (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit))
      catalogue
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) (max 1 t.attempted) t.failed
    (String.concat ", " metrics)
