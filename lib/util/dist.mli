(** Finite probability distributions over [0 .. n-1].

    The randomized algorithms of the paper maintain a distribution over edge
    positions and, on each request, shift to an updated distribution while
    paying movement proportional to how far probability mass travels.  This
    module provides the three primitives that make this faithful to the
    analysis:

    - exact sampling,
    - the optimal "lazy" coupling between two distributions, which keeps the
      current sample unchanged with the largest possible probability
      ([min(1, p'(s)/p(s))]) and otherwise resamples from the normalized
      positive part of [p' - p]; the probability of moving at all equals half
      the L1 distance, matching the movement bound used by Lemma 4.3,
    - distance functionals (total variation, L1, and the earthmover distance
      under the line metric) used by tests and by cost accounting. *)

type t = private float array
(** A normalized probability vector.  The [private] type guarantees all
    values were built through {!of_weights} / {!uniform} / {!point} and hence
    are normalized and non-negative. *)

val of_weights : float array -> t
(** Normalize a non-negative, not-all-zero weight vector.  Raises
    [Invalid_argument] on negative weights or zero total mass. *)

val of_grad : float array -> t
(** Trusts an already-normalized vector (e.g. a {!Smin} gradient); verifies
    normalization up to 1e-6 and renormalizes exactly. *)

val of_grad_into : float array -> t -> unit
(** [of_grad_into g dst] is {!of_grad} writing into an existing
    distribution buffer of the same size (e.g. one created by {!uniform}) —
    the allocation-free form used by the per-request MTS solver loops.
    Performs the same validation and exact renormalization as {!of_grad},
    so the result is bit-identical. *)

val uniform : int -> t
val point : int -> n:int -> t

val size : t -> int
val prob : t -> int -> float

val sample : Rng.t -> t -> int
(** Exact inverse-CDF sampling. *)

val resample_coupled : Rng.t -> current:int -> old_dist:t -> new_dist:t -> int
(** [resample_coupled rng ~current ~old_dist ~new_dist] returns a sample of
    [new_dist] that equals [current] with probability
    [min(1, new_dist(current)/old_dist(current))] — the maximal-stay coupling.
    If [current] is kept by every caller whenever possible, the marginal
    distribution of the returned position is exactly [new_dist] provided the
    caller's [current] was distributed as [old_dist].  It is
    {!resample_coupled_u} with [u] drawn by [Rng.float rng]; sizes and
    [current] are checked before that draw, so a rejected call (raising
    [Invalid_argument]) leaves [rng] untouched. *)

val resample_coupled_u :
  Rng.t -> u:float -> current:int -> old_dist:t -> new_dist:t -> int
(** [resample_coupled_u rng ~u ~current ~old_dist ~new_dist] is the same
    coupling with its first uniform [u] in [\[0, 1)] already drawn by the
    caller: [current] is kept when [u] is below the stay probability,
    [new_dist] is sampled at [u] when [old_dist] gives [current] no mass,
    and otherwise one more uniform is drawn from [rng] to sample the
    excess of [new_dist] over [old_dist].  Lets a caller that can decide
    the stay without either distribution (see {!Rbgp_mts.Smin_mw}) draw
    [u] first and still follow the coupling draw for draw.  Raises
    [Invalid_argument] on a size mismatch, an out-of-range [current] or
    [u] outside [\[0, 1)]. *)

val tv_distance : t -> t -> float
(** Total variation distance, [1/2 * L1]. *)

val l1_distance : t -> t -> float

val to_array : t -> float array
(** Fresh copy of the underlying vector. *)
