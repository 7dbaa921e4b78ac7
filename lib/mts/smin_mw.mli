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

    The step is {!Rbgp_util.Smin_weights.step}: cached weights, one
    [exp] per task, and an O(1) step on a miss that keeps the minimum,
    with states, probabilities and rng draws bit-identical to the dense
    form. *)

val solver : Mts.factory

val solver_with_scale : c:float -> Mts.factory
(** Override the scale parameter (default: [max 1 (diameter metric)]).
    Smaller [c] reacts faster but moves more; E9's ablation sweeps this. *)

val distribution : Metric.t -> float array -> Rbgp_util.Dist.t
(** The distribution [grad smin_c x] this solver maintains for cumulative
    cost vector [x] (with the default scale); exposed for tests. *)
