(** Drives an online algorithm over a request trace and charges costs.

    The simulator owns the cost accounting so that every algorithm —
    including baselines and, in tests, deliberately buggy ones — is billed by
    the same rules:

    + a request on edge [(e, e+1)] costs 1 of communication iff the
      endpoints are currently on different servers (checked {e before} the
      algorithm reacts);
    + after the algorithm's [serve] returns, the Hamming distance between
      the previous and new assignment is charged as migration;
    + the new assignment must satisfy the algorithm's claimed
      resource-augmentation bound (violations are counted; [run] raises by
      default, or records them when [strict:false] for diagnostic runs).

    The per-step hook receives cumulative costs and supports time-series
    experiments (cost curves, crossover plots) without a second run.

    {2 Accounting}

    Migrations are billed from the assignment's move journal
    ({!Online.t.journal}) in [O(moves + 1)] per request: each journaled
    process is compared against a shadow of its previous server, so a
    process that moves away and back within one step costs nothing.  The
    running maximum load and the capacity check read the assignment's
    [O(1)] cached maximum ({!Assignment.max_load}) once the step is
    complete, so mid-step transients are never observed.  The test suite
    checks every step against an [O(n)] {!Assignment.diff_into} oracle. *)

type result = {
  cost : Cost.t;
  steps : int;
  max_load : int;  (** maximum server load ever observed after a reaction *)
  capacity_violations : int;
  per_step : (int * int) array option;
      (** cumulative (comm, mig) after each step when requested *)
}

type stepper
(** Incremental form of {!run}: the same accounting state machine, one
    request at a time.  [run] is implemented on top of it; the streaming
    serving engine ({!Rbgp_serve.Engine}) drives it directly from an
    unbounded request source. *)

val stepper :
  ?strict:bool ->
  ?cost:Cost.t ->
  ?max_load:int ->
  ?violations:int ->
  ?steps_done:int ->
  Instance.t ->
  Online.t ->
  stepper
(** [stepper inst alg] captures the algorithm's current assignment as the
    accounting baseline (any moves made before this call — construction, or
    a checkpoint restore — are not billed).  The optional [cost],
    [max_load], [violations] and [steps_done] seeds resume cumulative
    accounting mid-stream from a checkpoint; they default to a fresh run.
    [cost] is owned by the stepper and mutated in place. *)

val step : stepper -> int -> int * int
(** [step st e] serves one request on edge [e]: charges communication,
    calls the algorithm's [serve], charges migrations, updates the load
    maximum and checks capacity (raising [Failure] in strict mode).
    Returns this request's [(comm, migrations)] — cumulative totals are in
    {!stepper_result}.  Raises [Invalid_argument] if [e] is out of
    [\[0, n)]. *)

val step_frozen : stepper -> int -> int * int
(** [step_frozen st e] serves one request on the degraded never-move
    path: communication is charged iff [e] is currently cut, the
    algorithm's [serve] is {e not} called, no migrations occur, and the
    load maximum / capacity check / step counter advance as usual.  Used
    by the serving engine when a per-request solver budget is exceeded —
    and during checkpoint replay of positions recorded as degraded, so
    resumption remains byte-identical.  Raises [Invalid_argument] if [e]
    is out of [\[0, n)]. *)

val prepare : stepper -> int array -> int -> int * int
(** [prepare st edges] pre-solves a whole batch of requests and returns a
    [play] function; [play j] performs the accounting of
    [step st edges.(j)] and returns the same [(comm, migrations)] pair.
    When the algorithm provides a batched path ({!Online.t.batch}) the
    decisions for all requests are computed before the first [play] —
    potentially sharded across domains — while costs, journal accounting,
    load tracking and capacity checks still happen request by request in
    arrival order, so results are identical to [step]ping each edge.

    [play] must be called exactly in order [j = 0, 1, ...] (raises
    [Invalid_argument] otherwise).  Unlike [step], all edges are validated
    {e up front}, so an out-of-range edge anywhere in the batch raises
    before any request is served.  On a strict-mode capacity failure at
    request [j], requests after [j] have already been pre-solved inside
    the algorithm; the stepper must not be reused past the failure. *)

val stepper_result : stepper -> result
(** Cumulative totals so far ([per_step] is always [None]; the returned
    [cost] is the live accumulator, not a copy). *)

val run :
  ?strict:bool ->
  ?record_steps:bool ->
  ?on_step:(int -> Cost.t -> unit) ->
  Instance.t ->
  Online.t ->
  Trace.t ->
  steps:int ->
  result
(** [run inst alg trace ~steps] simulates [steps] requests.
    @param strict raise [Failure] on a capacity violation (default [true])
    @param record_steps keep the cumulative cost series (default [false])
    @param on_step called after each step with the step index and cumulative
    cost *)

val replay_cost : Instance.t -> int array -> assignments:int array array -> Cost.t
(** [replay_cost inst trace ~assignments] computes the cost of an arbitrary
    (offline) schedule: [assignments.(t)] is the assignment used when request
    [trace.(t)] arrives (communication billed against it), and migrations
    are billed between consecutive assignments, including the initial move
    from [inst.initial] to [assignments.(0)].  Used to price offline optima
    and hand-crafted schedules in tests. *)
