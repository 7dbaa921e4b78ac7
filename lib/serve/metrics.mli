(** Live serving metrics: a log-bucketed ingest-latency histogram plus
    cumulative request/cost counters.

    The histogram has one bucket per power of two of nanoseconds (bucket
    [i] holds latencies in [\[2^i, 2^{i+1})], bucket 0 also 0 and 1), so
    recording is O(1) — below [2{^53}] ns the bucket is the binary
    exponent of the latency as a float, read from its bits — and
    allocation-free: every counter, the latency sum included, is an int.
    The whole structure is a few hundred bytes, cheap enough to update
    on every request of a hot serving loop.
    Quantiles are therefore bucket-resolution approximations: {!quantile}
    returns the lower bound of the bucket containing the requested rank
    (within a factor of 2 of the true value).

    [rbgp serve] embeds {!to_json} records in its JSONL output every N
    requests, dumps {!summary} to stderr on SIGUSR1 and at exit, and the
    bench harness reads p50/p99 from here for [BENCH_3.json]. *)

type t

val create : unit -> t
(** Starts the clock (monotonic, see {!elapsed_s}). *)

val observe : t -> latency_ns:int -> comm:int -> moved:int -> max_load:int -> unit
(** Record one served request: its ingest latency, the communication
    (0/1) and migrations charged for it, and the cumulative maximum load
    after it. *)

val observe_batch :
  t -> count:int -> latency_ns:int -> comm:int -> mig:int -> max_load:int -> unit
(** Record [count] requests served as one quiet batch (see
    {!Engine.ingest_batch_quiet}): [latency_ns] is the whole batch's
    wall-clock time and [comm]/[mig] its total charges.  Counters advance
    exactly as [count] {!observe} calls would; the latency histogram
    records the batch {e mean} for each request, so quantiles reflect
    batch-level, not per-request, variation.  No-op when [count = 0]. *)

val note_degraded : t -> unit
(** Count one request served on the degraded never-move path because the
    per-request solver budget was exceeded. *)

val note_recovered : t -> unit
(** Count one re-promotion from the degraded path back to the real
    solver after a quiet interval. *)

val requests : t -> int
val comm : t -> int
val mig : t -> int
val max_load : t -> int
val degraded : t -> int
val recovered : t -> int

val elapsed_s : t -> float
(** Seconds since {!create}, on the monotonic clock
    ({!Rbgp_util.Clock}). *)

val rps : t -> float
(** [requests / elapsed]; [0.] before the first request. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [\[0, 1\]]: approximate latency in
    nanoseconds at rank [q] (lower bound of the covering bucket); [0]
    when nothing was observed. *)

val mean_latency_ns : t -> float
(** The mean recorded latency; [0.] before the first request.  The sum
    behind it is an int, so it is exact where a float sum would round
    (beyond [2{^53}] ns in total). *)

type snapshot
(** A frozen, immutable copy of every counter and the full histogram,
    taken atomically with respect to the single-threaded serving loop.
    All rendered surfaces ({!json_of_snapshot}, {!summary_of_snapshot},
    {!prometheus_exposition}) are produced from snapshots, so the JSONL
    record, the SIGUSR1 dump and the HTTP exposition can never disagree
    about a moving counter. *)

val snapshot : t -> snapshot

val snapshot_requests : snapshot -> int
val snapshot_rps : snapshot -> float
val snapshot_quantile : snapshot -> float -> int
(** Same bucket-resolution semantics as {!quantile}. *)

val json_of_snapshot : snapshot -> string
(** Same one-line JSON object as {!to_json}, rendered from the frozen
    counters. *)

val summary_of_snapshot : snapshot -> string
(** Same human-readable paragraph as {!summary}. *)

val prometheus_exposition :
  Buffer.t -> ((string * string) list * snapshot) list -> unit
(** Append the Prometheus text exposition (format 0.0.4) of a set of
    labeled snapshots to the buffer: one series per (labels, snapshot)
    pair, e.g. one per tenant with [["tenant", id]].  Emits counters for
    requests and comm/mig/degraded/recovered, gauges for max load and
    uptime, and the ingest-latency histogram with power-of-two bucket
    bounds rendered in seconds (only non-empty buckets are listed, plus
    the mandatory [+Inf]).  Every metric name starts with [rbgp_].
    Label values are escaped per the exposition spec.

    A scrape renders each series' label block once, writes integers
    digit by digit and takes the bucket bounds from a table built at
    startup; only uptime ([%.3f]) and the latency sum ([%.9g]) go through
    Printf.  The bytes are those of the same lines formatted with [%d],
    [%g] and [%s]. *)

val add_int : Buffer.t -> int -> unit
(** Append [n] as [%d] writes it, digit by digit: the exposition's
    integer writer, shared with the HTTP surface's tenant gauges. *)

val to_json : t -> string
(** One-line JSON object (type tag ["metrics"]): requests, rps, p50/p90/p99
    latency ns, mean latency, cumulative comm/mig, max load, elapsed
    seconds.  Equivalent to [json_of_snapshot (snapshot t)]. *)

val summary : t -> string
(** Human-readable one-paragraph rendering of the same numbers. *)
