(** Exact offline optimum for metrical task systems with indicator tasks
    and a free start.

    [opt_t(s)] — the cheapest cost of serving the first [t] tasks and ending
    in state [s] — satisfies
    [opt_t(s) = min over s' of (opt_(t-1)(s') + d(s', s)) + [s = e_t]],
    from [opt_0 = 0]: the schedule owns a position when its accounting
    begins.  The inner minimum is a distance transform, computed
    {e in place}: O(s) per step on the line (two sweeps — the per-row
    argmin is monotone, so one forward and one backward relaxation replace
    the quadratic minimum) and on the uniform metric (global min + clamp).
    Total runtime O(T s) with no per-request allocation, and a reusable
    {!scratch} lets grids of per-interval optima allocate nothing per call.

    This is the comparator of Lemma 3.3 ([OPT_MTS(I)]) and the certifier
    for the per-interval lower bounds on dynamic OPT (Lemma 4.15 analogue
    used at scale). *)

type scratch
(** A reusable DP buffer (grown on demand, like {!Rbgp_util.Dist.of_grad_into}'s
    destination): pass the same scratch to many indicator-DP calls and the
    solver stops allocating per call.  Not safe to share across domains —
    give each {!Rbgp_util.Pool} task its own. *)

val scratch : unit -> scratch

val opt_cost_indicators_free : ?scratch:scratch -> Metric.t -> int array -> float
(** The minimum total cost of serving the indicator tasks [es] (task [e]
    charges 1 at state [e], paid at the state occupied when it is served,
    after any movement) from a free choice of start state — the comparator
    shape used for per-interval optima ([OPT_MTS(I)], Lemma 3.3) and for
    the windowed dynamic lower bound, where the offline schedule already
    owns a position when the window's accounting begins.  [?scratch]
    reuses the given buffer for the DP layer instead of allocating one. *)
