(** Randomized smooth-minimum multiplicative-weights MTS solver.

    This is the paper's own Appendix-A machinery, lifted from the hitting
    game to a general MTS solver: maintain the cumulative cost vector [x]
    (sum of all task vectors seen), keep the state distributed as
    [p = grad smin_c x] with scale [c = diameter of the metric], and on each
    update resample through the maximal-stay L1 coupling
    ({!Rbgp_util.Dist.resample_coupled}).

    Why this is faithful: Lemma A.3 (iv) bounds the L1 change of the
    distribution per unit of incurred cost by [2/c], so the expected
    movement (at most diameter x L1/2 per step on the line) is within a
    constant of the expected hitting cost — the same argument as
    Lemma 4.3 b).  On indicator cost vectors (the only shape the ring
    reduction emits) the expected hitting cost telescopes into
    [smin_c(x_final) <= min(x) + c ln s] (Lemma A.3 (i)/(iii)), giving an
    O(log s)-competitive-against-static behaviour; against dynamic optima it
    is the randomized workhorse of experiments E2/E3/E9.

    The step is incremental.  A unit task on state [e] raises [x_e] alone,
    so the solver caches [x_i / c] and the weights
    [w_i = exp (m - x_i / c)] for the minimum [m] of the scaled costs,
    together with the number of states at [m].  A task recomputes one
    weight; only a task that lifts the last state at the minimum moves [m]
    and recomputes all [s].

    A miss (a task on [e] other than the current state [j]) that keeps [m]
    lowers [w_e] alone, so [p_j] can only grow and the coupling's stay
    probability is 1 up to rounding.
    Such a step draws the coupling's stay uniform [u] and, when [u] is
    below [1 - 2^-20], [w_e] did not rise and [w_j] is at least [2^-960]
    (with at most [2^26] states), returns [j] in O(1): no normalisation,
    no distribution check, no resample, and no allocation: [u] is drawn
    as its 53 bits ({!Rbgp_util.Rng.bits53}) and compared with the
    threshold on that scale.  DESIGN.md derives why the dense step would
    stay on that [u] too.  Every other step (a hit, a rescale,
    a failed guard, [u >= 1 - 2^-20]) is dense: the normalisation
    [z = sum w_i], the distribution check and the coupled resample, with
    that same [u], run over the same floats in the same order as on the
    dense cost vector (adding the vector's [+0.0] entries to non-negative
    sums is exact).  So states, probabilities and rng draws are
    bit-identical to the dense form. *)

val solver : Mts.factory

val solver_with_scale : c:float -> Mts.factory
(** Override the scale parameter (default: [max 1 (diameter metric)]).
    Smaller [c] reacts faster but moves more; E9's ablation sweeps this. *)

val distribution : Metric.t -> float array -> Rbgp_util.Dist.t
(** The distribution [grad smin_c x] this solver maintains for cumulative
    cost vector [x] (with the default scale); exposed for tests. *)
