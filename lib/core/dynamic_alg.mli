(** The dynamic-model online algorithm ONL_R (Section 3, Theorem 2.1).

    The ring is partitioned by the shifted interval decomposition
    ({!Rbgp_ring.Intervals}); each interval runs an independent black-box
    MTS solver over its edges (line metric).  A request on edge [e] is
    forwarded, as the unit task on [e]'s interval-local index
    ({!Rbgp_mts.Mts.serve}), to the MTS instance of the interval
    containing [e]; the solvers' states are the cut edges, and
    the cut edges determine the process-to-server map through
    {!Rbgp_ring.Intervals.slices_of_cuts}.

    With the shift [R] drawn uniformly at random and an
    [alpha(k)]-competitive randomized MTS solver, the expected cost is
    [O(alpha(k) * log k / epsilon) * OPT_dynamic + c] (Theorem 2.1 chains
    Lemmas 3.3, 3.6 and 3.4); the load never exceeds
    [2 max_width - 1 = (2 + O(epsilon)) k] (Lemma 3.1).

    Each MTS instance starts on an initial cut edge of the instance inside
    its interval (one always exists: balanced initial loads force a cut at
    least every [k] positions, and intervals are wider than [k]).  The
    server naming is the fixed identification slice [i] -> server [i]; the
    one-time cost of aligning the initial assignment with it is part of the
    additive constant of Theorem 2.1 and is charged to the algorithm by the
    simulator on its first step. *)

type t

val create :
  ?shift:int ->
  ?mts:Rbgp_mts.Mts.factory ->
  epsilon:float ->
  Rbgp_ring.Instance.t ->
  Rbgp_util.Rng.t ->
  t
(** Defaults: uniformly random [shift] in [\[0, n)];
    [mts] = {!Rbgp_mts.Smin_mw.solver}.  Raises if the decomposition needs
    more intervals than there are servers (cannot happen for
    [epsilon > 0] on valid instances). *)

val online : t -> Rbgp_ring.Online.t
(** The {!Rbgp_ring.Online.t} view driven by the simulator: the
    per-request [serve], and O(state) snapshots holding the shift (for
    checking) and each interval solver's {!Rbgp_mts.Mts.snapshot}.
    Restoring one loads every solver, then rebuilds the cuts and the
    assignment from the solver states; it raises [Invalid_argument] on a
    shift or interval-count mismatch, truncated input or a solver state
    out of range. *)

val serve : t -> int -> unit
(** React to a request on ring edge [e]: route it to the owning interval's
    MTS solver (O(1) table lookup) and, if the cut moved, update the
    assignment incrementally along the moved range.  Raises
    [Invalid_argument] on an out-of-range edge. *)

val cut_edges : t -> int array
(** Current cut edge of each interval (global indices). *)

val interval_hit_cost : t -> float
(** Sum over intervals of the MTS hit costs — the proxy [sum cost_hit(I)]
    of Observation 3.2 (an upper bound on true communication cost). *)

val interval_move_cost : t -> float
(** Sum over intervals of MTS movement — upper bound on migration cost. *)

val decomposition : t -> Rbgp_ring.Intervals.t
