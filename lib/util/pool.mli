(** Deterministic, {e persistent} Domain-based work pool.

    The experiment harness fans independent grid cells (algorithm x workload
    x seed x k) across cores with {!map}.  Worker domains are spawned once
    (on first use, or explicitly via {!warmup}) and then parked on a
    condition variable between jobs, so fan-out cost is amortized across an
    entire experiment run instead of being paid per table.  Three properties
    make the parallel runs indistinguishable from sequential ones:

    - {b deterministic ordering}: [map f items] always returns results in
      input order, regardless of which domain computed which item and in
      which order chunks were claimed;
    - {b deterministic errors}: if several items raise, the exception of the
      {e smallest} input index is re-raised, exactly as a sequential loop
      would have surfaced it first;
    - {b seed isolation}: {!map_seeded} pre-splits one child {!Rng.t} per
      item from a parent generator {e sequentially} (in input order) before
      any parallelism starts, so each task owns an independent stream whose
      identity does not depend on the schedule.

    Tasks must not share mutable state with each other; the harness
    guarantees this by constructing all shared inputs (instances, traces,
    offline DP tables) before the fan-out and treating them as read-only.

    The default domain count is resolved, in order, from: an explicit
    {!set_domains} override (the [--domains] CLI flag), the [RBGP_DOMAINS]
    environment variable, and [Domain.recommended_domain_count ()].  Like
    [RBGP_GRAIN] and [RBGP_SEQ_CUTOFF_NS] below, the variable is read once
    at program start; changing it later has no effect.  With a
    single domain (or a single item) [map] degrades to a plain sequential
    [Array.map] in the calling domain — no workers are woken.  Nested
    [map]s (from a worker, or from [f] itself) also run sequentially rather
    than deadlocking on the single job slot.

    The scheduling {e grain} — how many items a worker claims per trip to
    the shared cursor — is resolved from {!set_grain} (the [--grain] CLI
    flag), the [RBGP_GRAIN] environment variable, or chosen automatically
    (see below).  Larger grains reduce cursor traffic for many tiny cells;
    grain 1 maximizes load balance for few expensive cells.  The grain
    never affects results, only the schedule.

    {2 Cost-measured auto-grain}

    Callers that issue the same shape of job repeatedly tag their maps with
    a [~family] label.  The pool measures every tagged map (wall time per
    item; parallel runs are scaled by the effective parallelism —
    participants capped at the core count — so the estimate approximates
    sequential CPU cost even on an oversubscribed machine) and folds the
    observation into a per-family EWMA ([alpha = 0.3]).  The estimate
    steers two decisions for subsequent maps of the same family:

    - {b sequential fallback}: if the estimated {e total} work
      [est_ns_per_item * n] is below the cutoff (default 200 us; override
      with {!set_sequential_cutoff} or [RBGP_SEQ_CUTOFF_NS]), the job runs
      sequentially in the caller — waking parked workers and the join
      handshake would cost more than the parallelism saves.  This is what
      keeps small/quick configurations on the sequential path without any
      per-call-site tuning.
    - {b chunk sizing}: chunks are sized to carry roughly 100 us of
      estimated work each (clamped to at least two chunks per participant),
      so cheap items amortize cursor traffic and expensive items still
      load-balance.

    A forced grain ({!set_grain} / [RBGP_GRAIN]) disables the heuristic
    entirely and restores the fixed-grain behavior: jobs always attempt the
    parallel path with the forced chunk size.  Untagged maps behave as
    before (optimistic parallel dispatch, [max 1 (n / (8 d))] chunks).
    The first map of a family has no estimate yet and is dispatched
    optimistically in parallel.  Estimates never affect results, only the
    schedule; the byte-identity qchecks in [test_pool] hold under every
    mode. *)

val set_domains : int option -> unit
(** Process-wide override of the default domain count ([Some d] with
    [d >= 1]); [None] restores env/auto detection.  Raises
    [Invalid_argument] on [Some d] with [d < 1]. *)

val domains : unit -> int
(** The effective default domain count (override, else [RBGP_DOMAINS],
    else [Domain.recommended_domain_count ()]); always at least 1. *)

val set_grain : int option -> unit
(** Process-wide override of the scheduling grain ([Some g] with [g >= 1]);
    [None] restores env/auto detection.  Raises [Invalid_argument] on
    [Some g] with [g < 1]. *)

val grain : unit -> int option
(** The forced grain, if any (override, else [RBGP_GRAIN]); [None] means
    the automatic per-job default. *)

val warmup : ?domains:int -> unit -> unit
(** Pre-spawn the worker domains a subsequent [map ~domains] would use, so
    the first parallel job does not pay domain-creation cost.  Idempotent;
    benchmarks call this to separate pool-spawn cost from algorithmic
    speedup. *)

val shutdown : unit -> unit
(** Join and discard all parked workers (the next parallel [map] or
    {!warmup} re-spawns cold).  Called automatically at process exit;
    benchmarks call it to measure cold-start cost. *)

val set_sequential_cutoff : float option -> unit
(** Process-wide override of the auto-grain sequential-fallback cutoff in
    nanoseconds ([Some c] with [c > 0.]); [None] restores
    [RBGP_SEQ_CUTOFF_NS]/default resolution.  Raises [Invalid_argument] on
    a non-positive cutoff. *)

val sequential_cutoff_ns : unit -> float
(** The effective cutoff (override, else [RBGP_SEQ_CUTOFF_NS], else
    200 us): tagged jobs with estimated total work below this run
    sequentially. *)

val estimated_cost_ns : string -> float option
(** The current EWMA estimate of ns/item for a job family, if any map
    tagged with that family has completed. *)

val reset_estimates : unit -> unit
(** Drop all per-family cost estimates (next tagged map of each family is
    dispatched optimistically again).  Benchmarks use this to make runs
    independent of earlier jobs. *)

val last_map_parallel : unit -> bool
(** Whether the most recent {!map} on any domain took the parallel path
    (true) or the sequential path (false).  A scheduling diagnostic for
    tests and benchmarks only — results are identical either way. *)

val map : ?domains:int -> ?family:string -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f items] applies [f] to every element, using up to
    [domains] domains (including the caller), and returns the results in
    input order.  Chunked dynamic scheduling balances uneven task costs.
    Output is identical to [Array.map f items] whenever every [f] call is
    independent of the others.  [~family] opts into the cost-measured
    auto-grain heuristic described above; it changes scheduling only,
    never results. *)

val map_list : ?domains:int -> ?family:string -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val map_seeded :
  ?domains:int ->
  ?family:string ->
  rng:Rng.t ->
  (Rng.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_seeded ~rng f items] splits one child generator per item off [rng]
    sequentially (advancing [rng] exactly [Array.length items] times), then
    runs [f child_rng item] in parallel.  Bit-identical to the sequential
    loop [Array.map (fun x -> f (Rng.split rng) x) items]. *)
