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
    (latencies excepted).  Every registered algorithm also exposes its
    whole online state through the {!Rbgp_ring.Online.t} snapshot hooks,
    so a {!checkpoint} is O(state) and {!resume} restores it without
    re-serving anything — and the resumed engine continues exactly as the
    uninterrupted one would.

    {2 Runtime sanitizer}

    With [~sanitize:true] (or the environment variable [RBGP_SANITIZE] set
    to [1]/[true]/[yes]/[on]), every {!ingest} additionally asserts the
    engine's per-step invariants after the algorithm has served the
    request: the assignment is a valid partition (every process on a server
    in range, cached loads consistent with the map), the maximum load
    respects the algorithm's claimed augmentation bound, communication
    charges are unit-sized, and cumulative costs and the running max load
    are monotone.  The first violated invariant raises [Failure] with the
    offending request index.  Off by default — the checks are [O(n)] per
    request.

    {2 Solver budget and degraded serving}

    {!set_solver_budget} arms a per-request solve-time budget: when a
    request's effective latency (measured, plus any {!Fault}-injected
    stall) exceeds it, the next [cooloff] requests are served on the
    frozen never-move path ({!Rbgp_ring.Simulator.step_frozen}) — the
    solver is bypassed, communication is still billed, nothing moves —
    and the solver is re-promoted after the cooloff.  Frozen stretches
    are counted in {!Metrics} ([degraded]/[recovered]).  Frozen requests
    never reach the algorithm, so its snapshot already accounts for them;
    a {!checkpoint} taken mid-cooloff records only the remaining cooloff,
    which {!resume} honours.  Latencies and the budget use the monotonic
    clock ({!Rbgp_util.Clock}), so a wall-clock step cannot fire a
    spurious degradation.  Degradation triggers are evaluated at request
    boundaries (batch boundaries on the batched paths — a prepared batch
    is never split).

    {2 Fault hooks}

    When a {!Fault} plan is armed, ingest checks for planned crashes
    ([Injected_crash] before the designated request) and consults the
    plan for injected solver stalls; the batched paths fall back to
    per-request serving (identical decisions by the batch contract) so
    counted faults land on exact request indices.  Disarmed, the hooks
    cost one reference read per request or block. *)

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
  ?strict:bool ->
  ?sanitize:bool ->
  ?epsilon:float ->
  alg:string ->
  seed:int ->
  Rbgp_ring.Instance.t ->
  t
(** Builds the named algorithm through {!Registry.find} (raising
    [Invalid_argument] for unknown names, or for an algorithm without the
    snapshot hook) and starts a fresh accounting stepper.  [epsilon]
    defaults to [0.5]; [sanitize] defaults to the [RBGP_SANITIZE]
    environment variable (see the sanitizer section above). *)

val ingest : t -> int -> decision
(** Serve one request: charge communication, run the algorithm, charge
    migrations, check capacity ([Failure] in strict mode on violation),
    fold the request into the stream digest and update metrics. *)

val ingest_batch : t -> int array -> decision array
(** Serve a batch of requests through {!Rbgp_ring.Simulator.prepare}: the
    algorithm may pre-solve the whole batch sharded across pool domains
    (see {!Rbgp_ring.Online.t.batch}), while accounting, sanitizer checks,
    the stream digest and metrics are still advanced request by request in
    arrival order.  Every decision field except the wall-clock
    [latency_ns] is byte-identical to calling {!ingest} on each edge in
    turn, for any batch decomposition and any domain count; checkpoints
    taken between batches resume identically.  All edges are validated up
    front; on a strict-mode capacity failure mid-batch the engine must
    not be used further (later requests were already pre-solved inside
    the algorithm). *)

val ingest_batch_quiet : t -> int array -> unit
(** {!ingest_batch} without the per-request instrumentation: identical
    accounting, stream digest, sanitizer behaviour and checkpoints (a
    checkpoint taken after a quiet batch is byte-identical to one taken
    after the same requests through {!ingest}), but no decision records
    are built and the clock is read twice per batch instead of twice per
    request — metrics advance through one aggregate record (see
    {!Metrics.observe_batch}).  This is the [--no-decisions] serving path
    and the engine half of the BENCH_5 million-req/s number.  Sanitizing
    engines transparently fall back to the checked per-request path. *)

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
val epsilon : t -> float
val seed : t -> int

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

val resume :
  ?strict:bool ->
  ?sanitize:bool ->
  Checkpoint.t ->
  t
(** Reconstruct an engine mid-stream in O(state): rebuild the algorithm
    from [(alg, epsilon, seed, instance)], hand the checkpoint's state
    blob to its [restore] hook, carry over position, digest, costs and
    the remaining cooloff, and verify the restored assignment (and its
    load) against the stored one.  [Failure] is raised when the hook
    rejects the blob or the verification fails — a resumed engine is
    therefore byte-identical (decisions, costs, assignments, checkpoints)
    to one that never stopped.  Metrics start afresh. *)

val decision_to_json : decision -> string
(** One-line JSON record (type tag ["decision"]) for the [rbgp serve]
    JSONL stream. *)

val result_to_json : t -> string
(** Final summary record (type tag ["result"]): algorithm, requests
    served, cumulative costs, max load, violations. *)
