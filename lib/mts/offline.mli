(** Exact offline optimum for metrical task systems.

    [opt_t(s)] — the cheapest cost of serving the first [t] tasks and ending
    in state [s] — satisfies
    [opt_t(s) = min over s' of (opt_(t-1)(s') + d(s', s)) + T_t(s)].
    The inner minimum is a distance transform, computed {e in place}: O(s)
    per step on the line (two sweeps — the per-row argmin is monotone, so
    one forward and one backward relaxation replace the quadratic minimum)
    and on the uniform metric (global min + clamp).  Total runtime O(T s)
    with no per-request allocation, and the indicator specializations
    accept a reusable {!scratch} so grids of per-interval optima allocate
    nothing per call.

    This is the comparator of Lemma 3.3 ([OPT_MTS(I)]), the certifier for
    the per-interval lower bounds on dynamic OPT (Lemma 4.15 analogue used
    at scale), and the ground truth every online MTS solver is tested
    against. *)

val opt_cost : Metric.t -> start:int -> float array array -> float
(** Minimum total cost to serve the given task sequence from [start]
    (movement may happen before each task; the task is paid at the state
    occupied when it is served). *)

val opt_cost_indicators : Metric.t -> start:int -> int array -> float
(** Specialization to indicator tasks (the ring reduction's shape):
    [opt_cost_indicators m ~start es] equals
    [opt_cost m ~start (map (indicator ~n) es)] but builds no vectors. *)

type scratch
(** A reusable DP buffer (grown on demand, like {!Rbgp_util.Dist.of_grad_into}'s
    destination): pass the same scratch to many indicator-DP calls and the
    solver stops allocating per call.  Not safe to share across domains —
    give each {!Rbgp_util.Pool} task its own. *)

val scratch : unit -> scratch

val opt_cost_indicators_free : ?scratch:scratch -> Metric.t -> int array -> float
(** Like {!opt_cost_indicators} but with a free choice of start state (no
    initial movement charge) — the comparator shape used for per-interval
    optima ([OPT_MTS(I)], Lemma 3.3) and for the windowed dynamic lower
    bound, where the offline schedule already owns a position when the
    window's accounting begins.  [?scratch] reuses the given buffer for the
    DP layer instead of allocating one. *)
