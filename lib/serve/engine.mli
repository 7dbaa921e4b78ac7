(** The incremental serving engine: request in, decision out.

    Wraps a registered algorithm ({!Registry}) and the simulator's
    accounting stepper ({!Rbgp_ring.Simulator.stepper}) behind an
    [ingest : int -> decision] API that can be driven from an unbounded
    source — a pipe, a socket, a trace file — one request at a time, with
    live {!Metrics} and {!Checkpoint} snapshots at any point.

    {2 Determinism contract}

    An engine is a deterministic function of
    [(alg, epsilon, seed, instance)] and the request sequence: serving the
    same requests always yields the same decisions, costs and assignments
    (latencies excepted).  Every algorithm exposes its whole online state
    through the {!Rbgp_ring.Online.t} snapshot hooks, so a {!checkpoint}
    is O(state) and {!resume} restores it without re-serving anything —
    and the resumed engine continues exactly as the uninterrupted one
    would.

    {2 Solver budget and degraded serving}

    {!set_solver_budget} arms a per-request solve-time budget: when a
    request's latency exceeds it, the next [cooloff] requests are served
    on the frozen never-move path ({!Rbgp_ring.Simulator.advance_frozen})
    — the solver is bypassed, communication is still billed, nothing
    moves — and the solver is re-promoted after the cooloff.  Frozen
    stretches are counted in {!Metrics} ([degraded]/[recovered]).  Frozen
    requests never reach the algorithm, so its snapshot already accounts
    for them; a {!checkpoint} taken mid-cooloff records only the
    remaining cooloff, which {!resume} honours.  Latencies and the budget
    read the engine's clock: the monotonic {!Rbgp_util.Clock.now_ns} by
    default, so a wall-clock step cannot fire a spurious degradation, or
    a clock passed to {!create}/{!resume}, through which a test makes a
    chosen request slow.  Degradation triggers are evaluated at request
    boundaries (block boundaries on the quiet path, which bills a block
    in one loop and checks the block's mean latency). *)

type decision = {
  step : int;  (** 0-based index of the request just served *)
  edge : int;
  comm : int;  (** communication charged for this request (0/1) *)
  moved : int;  (** migrations charged for this request *)
  cum_comm : int;
  cum_mig : int;
  max_load : int;  (** running maximum load *)
  latency_ns : int;  (** monotonic-clock ingest latency of this request *)
}

type t

val create :
  ?epsilon:float ->
  ?clock:(unit -> int) ->
  alg:string ->
  seed:int ->
  Rbgp_ring.Instance.t ->
  t
(** Builds the named algorithm through {!Registry.find} (raising
    [Invalid_argument] for unknown names) and starts a fresh accounting
    stepper.  [epsilon] defaults to [0.5].  [clock] (nanoseconds,
    non-decreasing; default {!Rbgp_util.Clock.now_ns}) times every
    request or block for the latencies and the solver budget. *)

val ingest : t -> int -> decision
(** Serve one request: charge communication, run the algorithm, charge
    migrations, check capacity (raising [Failure] that names the step
    when the load exceeds the algorithm's claimed augmentation), fold
    the request into the stream digest and update metrics.  Outside the
    algorithm, the returned record is the only allocation: the request's
    charges and totals are read from the stepper as ints.  A batch is
    [Array.map (ingest t)]: checkpoints taken between batches resume
    identically. *)

val ingest_batch_quiet : t -> int array -> unit
(** {!ingest} on each edge without the per-request instrumentation:
    identical accounting, stream digest and checkpoints (a checkpoint
    taken after a quiet block is byte-identical to one taken after the
    same requests through {!ingest}), but the block is billed
    by one {!Rbgp_ring.Simulator.advance_block} loop and digested by one
    {!Checkpoint.digest_block} call, no decision records are built, the
    clock is read twice per block instead of twice per request, and
    metrics advance through one aggregate record (see
    {!Metrics.observe_batch}).  The solver budget compares the block's
    mean latency.  This is the [--no-decisions] serving path.

    A block served during a cooloff takes the per-request path instead,
    frozen until the cooloff ends.  Otherwise all edges
    are validated first: an out-of-range edge anywhere in the block raises
    [Invalid_argument] before any request is billed, leaving position,
    digest, costs and metrics as they were. *)

val ingest_prefix_quiet : t -> int array -> len:int -> unit
(** {!ingest_batch_quiet} over the first [len] edges of the array: the
    socket path bills a batch in place in the connection's reused edge
    buffer.  Raises [Invalid_argument] when [len] is outside
    [0 .. Array.length edges]. *)

val set_solver_budget : t -> budget_ns:int -> cooloff:int -> unit
(** Arm ([budget_ns > 0]) or disarm ([budget_ns = 0]) the per-request
    solver budget; [cooloff] is the length of each frozen stretch.
    Raises [Invalid_argument] on a negative budget or, when arming,
    [cooloff < 1]. *)

val degrading : t -> bool
(** Currently inside a frozen cooloff stretch? *)

val pos : t -> int
(** Requests served so far (including those before a resumed checkpoint). *)

val alg_name : t -> string

val instance : t -> Rbgp_ring.Instance.t
(** The run's identity parameters, as passed to {!create} (or recovered
    by {!resume}) — the tenant router matches these against re-[OPEN]
    configurations so one stream id can never silently switch runs. *)

val result : t -> Rbgp_ring.Simulator.result
(** Cumulative totals, identical to what a batch {!Rbgp_ring.Simulator.run}
    over the same request sequence reports. *)

val assignment : t -> int array
val online : t -> Rbgp_ring.Online.t
val metrics : t -> Metrics.t

val checkpoint : t -> Checkpoint.t
(** Snapshot the run in O(state): instance parameters, seed, position and
    stream digest, cumulative costs, current assignment, the algorithm's
    snapshot blob and the remaining solver-budget cooloff. *)

val resume : ?clock:(unit -> int) -> Checkpoint.t -> t
(** Reconstruct an engine mid-stream in O(state): rebuild the algorithm
    from [(alg, epsilon, seed, instance)], hand the checkpoint's state
    blob to its [restore] hook, carry over position, digest, costs and
    the remaining cooloff, and verify the restored assignment (and its
    load) against the stored one.  [Failure] is raised when the hook
    rejects the blob or the verification fails — a resumed engine is
    therefore byte-identical (decisions, costs, assignments, checkpoints)
    to one that never stopped.  Metrics start afresh.  [clock] is as for
    {!create}. *)

val decision_to_json : decision -> string
(** One-line JSON record (type tag ["decision"]) for the [rbgp serve]
    JSONL stream: the bytes of the [%d] format.  The record's length is
    computed first and its keys and digits written into one buffer of
    exactly that size, which becomes the returned string and is the
    call's only allocation. *)

val result_json :
  alg:string ->
  requests:int ->
  comm:int ->
  mig:int ->
  max_load:int ->
  violations:int ->
  string
(** Final summary record (type tag ["result"]) over a run's totals:
    algorithm, requests served, cumulative costs and their sum, max
    load, violations.  [rbgp serve] prints it for an engine
    ({!result_to_json}) and [rbgp client] for a closed stream, so the
    two records are the same bytes for the same run. *)

val result_to_json : t -> string
(** {!result_json} over this engine's totals. *)
