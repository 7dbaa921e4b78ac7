let nbuckets = 63

type t = {
  buckets : int array;
  mutable requests : int;
  mutable comm : int;
  mutable mig : int;
  mutable max_load : int;
  mutable lat_sum_ns : int;  (* an int: a float field would box per request *)
  t0_ns : int;  (* monotonic clock at create *)
  mutable degraded : int;
  mutable recovered : int;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    requests = 0;
    comm = 0;
    mig = 0;
    max_load = 0;
    lat_sum_ns = 0;
    t0_ns = Rbgp_util.Clock.now_ns ();
    degraded = 0;
    recovered = 0;
  }

(* Bucket [i] holds [2^i, 2^{i+1}) for i >= 1 and bucket 0 holds [0, 2):
   floor (log2 ns), capped at the last bucket.  Below 2^53, float_of_int
   is exact, so that is the binary exponent of the float, read from its
   bits in O(1); the loop covers the rest (top-level, so [observe]
   allocates no closure for it). *)
let rec bucket_loop i v = if v <= 1 then i else bucket_loop (i + 1) (v lsr 1)

let bucket_of ns =
  if ns <= 1 then 0
  else if ns < 1 lsl 53 then
    let bits = Int64.bits_of_float (float_of_int ns) in
    Int64.to_int (Int64.shift_right_logical bits 52) - 1023
  else Int.min (nbuckets - 1) (bucket_loop 0 ns)

let observe t ~latency_ns ~comm ~moved ~max_load =
  let latency_ns = Int.max 0 latency_ns in
  let b = bucket_of latency_ns in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.requests <- t.requests + 1;
  t.comm <- t.comm + comm;
  t.mig <- t.mig + moved;
  if max_load > t.max_load then t.max_load <- max_load;
  t.lat_sum_ns <- t.lat_sum_ns + latency_ns

(* Aggregate record for the engine's quiet batch path: [count] requests
   that together took [latency_ns] and charged [comm]/[mig].  Per-request
   timestamps were never taken — that is the point of the quiet path — so
   the histogram gets [count] entries at the batch's mean latency. *)
let observe_batch t ~count ~latency_ns ~comm ~mig ~max_load =
  if count > 0 then begin
    let latency_ns = Int.max 0 latency_ns in
    let b = bucket_of (latency_ns / count) in
    t.buckets.(b) <- t.buckets.(b) + count;
    t.requests <- t.requests + count;
    t.comm <- t.comm + comm;
    t.mig <- t.mig + mig;
    if max_load > t.max_load then t.max_load <- max_load;
    t.lat_sum_ns <- t.lat_sum_ns + latency_ns
  end

(* Solver-budget degradation accounting: [note_degraded] counts requests
   served on the frozen never-move path, [note_recovered] counts
   re-promotions back to the real solver after a quiet interval. *)
let note_degraded t = t.degraded <- t.degraded + 1
let note_recovered t = t.recovered <- t.recovered + 1

let requests t = t.requests
let comm t = t.comm
let mig t = t.mig
let max_load t = t.max_load
let degraded t = t.degraded
let recovered t = t.recovered

let elapsed_s t = float_of_int (Rbgp_util.Clock.now_ns () - t.t0_ns) *. 1e-9

(* All rendered surfaces (JSONL record, SIGUSR1 summary, Prometheus
   exposition) are produced from one frozen [snapshot] so the numbers on
   the three surfaces can never disagree about a moving counter. *)
type snapshot = {
  s_requests : int;
  s_comm : int;
  s_mig : int;
  s_max_load : int;
  s_degraded : int;
  s_recovered : int;
  s_lat_sum_ns : int;
  s_elapsed_s : float;
  s_buckets : int array;
}

let snapshot t =
  {
    s_requests = t.requests;
    s_comm = t.comm;
    s_mig = t.mig;
    s_max_load = t.max_load;
    s_degraded = t.degraded;
    s_recovered = t.recovered;
    s_lat_sum_ns = t.lat_sum_ns;
    s_elapsed_s = elapsed_s t;
    s_buckets = Array.copy t.buckets;
  }

let snapshot_requests s = s.s_requests

let snapshot_rps s =
  if s.s_requests = 0 || s.s_elapsed_s <= 0.0 then 0.0
  else float_of_int s.s_requests /. s.s_elapsed_s

let snapshot_quantile s q =
  if s.s_requests = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int s.s_requests)) in
      max 1 (min s.s_requests r)
    in
    let acc = ref 0 and found = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + s.s_buckets.(i);
         if !acc >= rank then begin
           found := (if i = 0 then 0 else 1 lsl i);
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end

let snapshot_mean_latency_ns s =
  if s.s_requests = 0 then 0.0
  else float_of_int s.s_lat_sum_ns /. float_of_int s.s_requests

let quantile t q = snapshot_quantile (snapshot t) q

let mean_latency_ns t =
  if t.requests = 0 then 0.0
  else float_of_int t.lat_sum_ns /. float_of_int t.requests

let json_of_snapshot s =
  Printf.sprintf
    "{\"type\":\"metrics\",\"requests\":%d,\"rps\":%.1f,\"p50_ns\":%d,\
     \"p90_ns\":%d,\"p99_ns\":%d,\"mean_ns\":%.0f,\"comm\":%d,\"mig\":%d,\
     \"max_load\":%d,\"degraded\":%d,\"recovered\":%d,\"elapsed_s\":%.3f}"
    s.s_requests (snapshot_rps s) (snapshot_quantile s 0.5)
    (snapshot_quantile s 0.9) (snapshot_quantile s 0.99)
    (snapshot_mean_latency_ns s) s.s_comm s.s_mig s.s_max_load s.s_degraded
    s.s_recovered s.s_elapsed_s

let summary_of_snapshot s =
  Printf.sprintf
    "served %d requests in %.2fs (%.0f req/s); ingest latency p50 %dns p90 \
     %dns p99 %dns mean %.0fns; cost comm=%d mig=%d; max load %d; degraded \
     %d (recovered %d)"
    s.s_requests s.s_elapsed_s (snapshot_rps s) (snapshot_quantile s 0.5)
    (snapshot_quantile s 0.9) (snapshot_quantile s 0.99)
    (snapshot_mean_latency_ns s) s.s_comm s.s_mig s.s_max_load s.s_degraded
    s.s_recovered

let to_json t = json_of_snapshot (snapshot t)
let summary t = summary_of_snapshot (snapshot t)

(* Prometheus text exposition (version 0.0.4), written into the caller's
   buffer.  A scrape renders each series' label block once, escaping its
   values per the spec (backslash, double quote, newline); integers are
   written digit by digit, and the histogram's bucket bounds come from a
   table built once.  Only the float values (uptime, the latency sum) go
   through Printf. *)

let add_escaped buf v =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v

(* The labels as [k="v",] pairs, each followed by a comma. *)
let add_label_pairs buf labels =
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      add_escaped buf v;
      Buffer.add_string buf "\",")
    labels

(* A series' two label blocks: ["{k=\"v\",...}"] ([""] without labels)
   and the bucket lines' ["{k=\"v\",...,le=\""], which the bound
   completes. *)
let label_blocks labels =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  add_label_pairs buf labels;
  let pairs = Buffer.contents buf in
  let plain =
    match labels with
    | [] -> ""
    | _ :: _ -> String.sub pairs 0 (String.length pairs - 1) ^ "}"
  in
  (plain, pairs ^ "le=\"")

(* The decimal digits of [v <= 0]'s magnitude, most significant first:
   counting on the non-positive side, where min_int has a negation. *)
let rec add_digits buf v =
  if v <= -10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (v mod 10)))

(* [n] as [%d] writes it. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* Bucket [i] of the internal log histogram holds latencies in
   [2^i, 2^{i+1}) ns, so its Prometheus upper bound is 2^{i+1} ns in
   seconds, as [%g] renders it. *)
let bucket_bounds =
  List.init nbuckets (fun i ->
      Printf.sprintf "%g" ((2.0 ** float_of_int (i + 1)) *. 1e-9))

let prometheus_exposition buf series =
  let rendered =
    List.map
      (fun (labels, s) ->
        let plain, bucket = label_blocks labels in
        (plain, bucket, s))
      series
  in
  let family name help kind =
    let metric = "rbgp_" ^ name in
    Buffer.add_string buf "# HELP ";
    Buffer.add_string buf metric;
    Buffer.add_char buf ' ';
    Buffer.add_string buf help;
    Buffer.add_string buf "\n# TYPE ";
    Buffer.add_string buf metric;
    Buffer.add_char buf ' ';
    Buffer.add_string buf kind;
    Buffer.add_char buf '\n';
    metric
  in
  let line metric block =
    Buffer.add_string buf metric;
    Buffer.add_string buf block;
    Buffer.add_char buf ' '
  in
  let ints kind name help value_of =
    let metric = family name help kind in
    List.iter
      (fun (plain, _, s) ->
        line metric plain;
        add_int buf (value_of s);
        Buffer.add_char buf '\n')
      rendered
  in
  ints "counter" "requests_total" "Requests served." (fun s -> s.s_requests);
  ints "counter" "comm_cost_total" "Cumulative communication cost." (fun s ->
      s.s_comm);
  ints "counter" "migration_cost_total" "Cumulative migration cost." (fun s ->
      s.s_mig);
  ints "counter" "degraded_requests_total"
    "Requests served on the degraded never-move path." (fun s -> s.s_degraded);
  ints "counter" "solver_repromotions_total"
    "Re-promotions from the degraded path back to the real solver." (fun s ->
      s.s_recovered);
  ints "gauge" "max_load" "Maximum cluster load observed." (fun s ->
      s.s_max_load);
  let uptime =
    family "uptime_seconds" "Seconds since metrics were created." "gauge"
  in
  List.iter
    (fun (plain, _, s) ->
      line uptime plain;
      Printf.bprintf buf "%.3f\n" s.s_elapsed_s)
    rendered;
  (* Cumulative counts per exposition convention, non-empty buckets
     only; the sum is the exact accumulated latency. *)
  let hist =
    family "ingest_latency_seconds" "Ingest latency histogram." "histogram"
  in
  let bucket_metric = hist ^ "_bucket" in
  let sum_metric = hist ^ "_sum" and count_metric = hist ^ "_count" in
  List.iter
    (fun (plain, bucket, s) ->
      let rec buckets i cum bounds =
        match bounds with
        | [] -> ()
        | le :: rest ->
            let cum = cum + s.s_buckets.(i) in
            if s.s_buckets.(i) > 0 then begin
              Buffer.add_string buf bucket_metric;
              Buffer.add_string buf bucket;
              Buffer.add_string buf le;
              Buffer.add_string buf "\"} ";
              add_int buf cum;
              Buffer.add_char buf '\n'
            end;
            buckets (i + 1) cum rest
      in
      buckets 0 0 bucket_bounds;
      Buffer.add_string buf bucket_metric;
      Buffer.add_string buf bucket;
      Buffer.add_string buf "+Inf\"} ";
      add_int buf s.s_requests;
      Buffer.add_char buf '\n';
      line sum_metric plain;
      Printf.bprintf buf "%.9g\n" (float_of_int s.s_lat_sum_ns *. 1e-9);
      line count_metric plain;
      add_int buf s.s_requests;
      Buffer.add_char buf '\n')
    rendered
