(** Certified lower bounds on offline optima at scales where exact dynamic
    programming is infeasible.

    {b Dynamic model.}  [dynamic_lb] implements a windowed tracking
    argument.  Fix vertex-disjoint windows [W_1, ..., W_m], each of [k+1]
    consecutive vertices and separated by at least one gap vertex.  Any
    schedule with loads at most [k] keeps at least one cut edge inside
    every window at all times (a window's [k+1] processes cannot share a
    server).  Track, per window, a canonical cut edge of the schedule (say
    the smallest-indexed one): whenever the tracked edge is requested the
    schedule pays that request (its endpoints straddle servers); the tracked
    edge can change only when the schedule's cut set inside the window
    changes, which costs at least one migration — and because the windows
    are vertex-disjoint with gaps, one migration changes the cut set of at
    most one window.  Hence, summed over windows,

    [OPT >= sum_w min over tracking sequences (hits + switches)]

    where the inner minimum is a uniform-metric MTS optimum over the
    window's edges with unit switch cost.  That optimum is the window's
    number of completed {e phases}, a phase ending once every edge of the
    window has been requested since it began, so one O(T) pass over the
    trace counts it for all windows at once.  Requests whose edges fall
    outside every window contribute
    nothing; shifting the window offset changes which do, so the maximum of
    the bound over several offsets (each individually valid) is reported.

    {b Interval-based comparator (Lemma 3.3).}  [interval_opt] is the cost
    of the *optimal interval-based strategy* [OPT_R] for a given shift:
    the sum over intervals of the exact offline line-MTS optimum on the
    requests restricted to the interval.  This is the exact denominator of
    experiment E2; it is {e not} in general a lower bound on the true
    dynamic optimum (Lemma 3.6 bounds it by [O(log k) * OPT]), and the
    harness labels it accordingly. *)

val dynamic_lb :
  Rbgp_ring.Instance.t -> int array -> ?offsets:int list -> unit -> int
(** Certified lower bound on the cost of any dynamic schedule with loads at
    most [k].  Default offsets: [0; (k+2)/3; 2(k+2)/3]. *)

val interval_opt :
  Rbgp_ring.Instance.t -> int array -> shift:int -> epsilon:float -> float
(** [OPT_R]: the optimal interval-based strategy's cost for shift
    [R] (in [\[0, n)]) under the exact decomposition
    {!Rbgp_ring.Intervals.make} — the same one {!Rbgp_core.Dynamic_alg}
    uses, so this is the true denominator of Lemma 3.3. *)

val static_lb : Rbgp_ring.Instance.t -> int array -> int
(** Certified lower bound on the static optimum
    ({!Static_opt.crossing_lower_bound}), re-exported for harness symmetry;
    also a lower bound on nothing else — the dynamic optimum can be far
    below it. *)
