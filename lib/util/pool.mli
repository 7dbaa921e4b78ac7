(** Deterministic, {e persistent} Domain-based work pool.

    The experiment harness fans independent grid cells (algorithm x workload
    x seed x k) across cores with {!map}.  Worker domains are spawned once
    (on first use, or explicitly via {!warmup}) and then parked on a
    condition variable between jobs, so fan-out cost is amortized across an
    entire experiment run instead of being paid per table.  Two properties
    make the parallel runs indistinguishable from sequential ones:

    - {b deterministic ordering}: [map f items] always returns results in
      input order, regardless of which domain computed which item and in
      which order chunks were claimed;
    - {b deterministic errors}: if several items raise, the exception of the
      {e smallest} input index is re-raised, exactly as a sequential loop
      would have surfaced it first.

    Tasks must not share mutable state with each other; the harness
    guarantees this by constructing all shared inputs (instances, traces,
    offline DP tables, each cell's {!Rng.t}) before the fan-out and
    treating them as read-only.

    The default domain count is resolved, in order, from: an explicit
    {!set_domains} override (the [--domains] CLI flag), the [RBGP_DOMAINS]
    environment variable, and [Domain.recommended_domain_count ()].  The
    variable is read once at program start; changing it later has no
    effect.  With a single domain (or a single
    item) [map] degrades to a plain sequential [Array.map] in the calling
    domain — no workers are woken.  Nested
    [map]s (from a worker, or from [f] itself) also run sequentially rather
    than deadlocking on the single job slot.

    A worker claims [max 1 (n / (8 d))] items per trip to the shared
    cursor, about eight chunks per participant.  The chunk size never
    affects results, only the schedule. *)

val set_domains : int option -> unit
(** Process-wide override of the default domain count ([Some d] with
    [d >= 1]); [None] restores env/auto detection.  Raises
    [Invalid_argument] on [Some d] with [d < 1]. *)

val domains : unit -> int
(** The effective default domain count (override, else [RBGP_DOMAINS],
    else [Domain.recommended_domain_count ()]); always at least 1. *)

val warmup : ?domains:int -> unit -> unit
(** Pre-spawn the worker domains a subsequent [map ~domains] would use, so
    the first parallel job does not pay domain-creation cost.  Idempotent;
    benchmarks call this to separate pool-spawn cost from algorithmic
    speedup. *)

val shutdown : unit -> unit
(** Join and discard all parked workers (the next parallel [map] or
    {!warmup} re-spawns cold).  Called automatically at process exit;
    benchmarks call it to measure cold-start cost. *)

val last_map_parallel : unit -> bool
(** Whether the most recent {!map} on any domain took the parallel path
    (true) or the sequential path (false).  A scheduling diagnostic for
    tests and benchmarks only — results are identical either way. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f items] applies [f] to every element, using up to
    [domains] domains (including the caller), and returns the results in
    input order.  Chunked dynamic scheduling balances uneven task costs.
    Output is identical to [Array.map f items] whenever every [f] call is
    independent of the others. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

