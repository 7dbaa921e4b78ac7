(** Smooth minimum approximation (Appendix A of the paper).

    [smin x = -ln (sum_i e^(-x_i))] approximates [min_i x_i] from below up to
    an additive [ln n], and its gradient is a probability distribution that
    concentrates on the (near-)minimal coordinates.  The scaled variant
    [smin_c x = c * smin (x/c)] trades approximation quality ([c ln n]
    additive error) for stability of the gradient (per-unit-of-cost L1 change
    bounded by [2/c], Lemma A.3), which is exactly what the hitting-game and
    MTS algorithms need: the gradient is used as the probability distribution
    over positions, and its L1 movement bounds the (expected) migration
    cost.  [smin] is [smin_c] at [c = 1].

    All computations are done with the standard log-sum-exp shift so they are
    numerically stable for arbitrarily large counters. *)

val grad_c : c:float -> float array -> float array
(** Gradient of [smin_c] at a non-empty [x]:
    [e^(-x_i/c) / sum_j e^(-x_j/c)], a probability distribution
    (Fact A.1 (ii), Lemma A.3 (ii)).  Requires [c >= 1]. *)

val grad_c_into : c:float -> float array -> float array -> unit
(** [grad_c_into ~c x out] writes {!grad_c} into [out] without allocating.
    [Array.length out] must equal [Array.length x]. *)

val smin_sub : c:float -> float array -> lo:int -> hi:int -> float
(** [smin_sub ~c x ~lo ~hi] is [smin_c] of the sub-vector [x.(lo..hi)]
    (inclusive bounds), without copying. *)

val grad_sub_into : c:float -> float array -> lo:int -> hi:int -> float array -> unit
(** Gradient of {!smin_sub} written into an [hi - lo + 1]-sized buffer.
    No program calls it: the players run the O(1) cached
    {!Smin_weights}.  It stays as the dense oracle that [test_hitting]'s
    line player and [test_static]'s dense Slicing compare against after
    every request. *)
