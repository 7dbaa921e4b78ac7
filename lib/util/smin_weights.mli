(** A state kept distributed as [grad smin_c x] (Appendix A) while unit
    tasks raise the counts [x] one at a time, moving through the
    maximal-stay coupling ({!Dist.resample_coupled_u}).  This is the step
    of the smooth-min MW solver ([Rbgp_mts.Smin_mw]) and of every Slicing
    interval's hitting-game player ([Rbgp_core.Slicing]).

    The weights are kept in factored form: [w_i = exp (m - x_i / c)] for
    the minimum [m] of the scaled counts, with the smallest count and the
    number of states holding it.  A task on [e] recomputes [w_e] alone;
    only a task that lifts the last state at the minimum moves [m] and
    recomputes all [s] weights.

    A miss (a task on [e] other than the current state [j]) that keeps
    [m] lowers [w_e] alone, so [p_j] can only grow and the coupling's stay
    probability is 1 up to rounding.  Such a step draws the coupling's
    stay uniform [u] and, when [u] is below [1 - 2^-20], [w_e] did not
    rise and [w_j] is at least [2^-960] (with at most [2^26] states),
    returns [j] in O(1): no normalisation, no distribution check, no
    resample, and no allocation: [u] is drawn as its 53 bits
    ({!Rng.bits53}) and compared with the threshold on that scale.
    DESIGN.md ("The O(1) miss step") derives why the dense step would
    stay on that [u] too.  Every other step (a hit, a rescale, a failed
    guard, [u >= 1 - 2^-20]) is dense: the normalisation [z = sum w_i],
    the distribution check and the coupled resample, with that same [u],
    run over the same floats in the same order as on the dense cost
    vector.  So states, probabilities and rng draws are bit-identical to
    recomputing [grad smin_c x] from scratch on every task. *)

type t

val create : c:float -> float array -> t
(** [create ~c x] takes ownership of the counts [x] (one per state,
    whole numbers).  Raises [Invalid_argument] on no states or
    [c < 1]. *)

val step : t -> Rng.t -> int -> int -> int
(** [step t rng e current] raises [x_e] by one and returns the next state
    of a walk that was on [current]: the coupling from the distribution
    before the task to the one after it. *)

val dist : t -> Dist.t
(** [grad smin_c x] for the current counts.  The buffer is the one the
    next step reads as its old distribution: read it before stepping
    again, and do not keep it. *)

val min_count : t -> int
(** The smallest count, read from the cache. *)

val counts : t -> float array
(** The live counts.  After writing them (restoring a snapshot), call
    {!refresh}. *)

val refresh : t -> unit
(** Recompute every cached quantity from the counts. *)
