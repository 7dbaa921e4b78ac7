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
    checks every step against an [O(n)] {!Assignment.diff_into} oracle.

    Every step that moved something syncs the shadow, so at a step
    boundary it equals the assignment: the communication check reads the
    requested edge's two shadow cells.  A step whose [serve] journaled
    nothing changed no load, so it skips the sync and checks capacity
    against the load cached at the last step that moved.  This relies on
    the {!Online} contract that an algorithm moves processes only inside
    [serve]. *)

type result = {
  cost : Cost.t;
  steps : int;
  max_load : int;  (** maximum server load ever observed after a reaction *)
  capacity_violations : int;
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

val advance : stepper -> int -> unit
(** [advance st e] is {!step} without the pair: the same accounting,
    returning nothing.  The request's charges are the growth of the
    stepper's cost record (mutated in place, and the [cost] that
    {!stepper_result} returns) across the call, so a caller that reads
    them there, and the load maximum from {!max_load}, bills a request
    without allocating. *)

val advance_frozen : stepper -> int -> unit
(** [advance_frozen st e] serves one request on the degraded never-move
    path: communication is charged iff [e] is currently cut, the
    algorithm's [serve] is {e not} called, no migrations occur, and the
    load maximum / capacity check / step counter advance as usual.  Used
    by the serving engine when a per-request solver budget is exceeded.
    Like {!advance}, it returns nothing.  Raises [Invalid_argument] if
    [e] is out of [\[0, n)]. *)

val advance_block : stepper -> int array -> int -> unit
(** [advance_block st edges len] is {!advance} on [edges.(0)] ..
    [edges.(len - 1)] in order, in one loop that calls the algorithm's
    [serve] directly and allocates nothing.  All [len] edges are validated
    {e first}: an out-of-range edge anywhere in the block raises
    [Invalid_argument] before any request is billed.  On a strict-mode
    capacity failure at request [j], requests [0 .. j] have been served
    and billed and the rest have not.  Raises [Invalid_argument] unless
    [0 <= len <= Array.length edges]. *)

val max_load : stepper -> int
(** The running maximum load, as {!stepper_result} reports it. *)

val prepare : stepper -> int array -> int -> int * int
(** [prepare st edges] validates every edge of the batch up front, then
    returns [play]; [play j] is [step st edges.(j)].  [play] must be
    called exactly in order [j = 0, 1, ...] (raises [Invalid_argument]
    otherwise).  A thin per-request wrapper over the same billing rule as
    {!step}: {!advance_block} is the block path.  It stays because the
    repository benchmark's traced recomposition drives the stepper
    through it. *)

val stepper_result : stepper -> result
(** Cumulative totals so far (the returned [cost] is the live
    accumulator, not a copy). *)

val run :
  ?strict:bool ->
  ?on_step:(int -> Cost.t -> unit) ->
  Instance.t ->
  Online.t ->
  Trace.t ->
  steps:int ->
  result
(** [run inst alg trace ~steps] simulates [steps] requests.
    @param strict raise [Failure] on a capacity violation (default [true])
    @param on_step called after each step with the step index and cumulative
    cost (the live accumulator: read it inside the call) *)

val replay_cost : Instance.t -> int array -> assignments:int array array -> Cost.t
(** [replay_cost inst trace ~assignments] computes the cost of an arbitrary
    (offline) schedule: [assignments.(t)] is the assignment used when request
    [trace.(t)] arrives (communication billed against it), and migrations
    are billed between consecutive assignments, including the initial move
    from [inst.initial] to [assignments.(0)].  Used to price offline optima
    and hand-crafted schedules in tests. *)
