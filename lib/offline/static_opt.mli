(** Offline *static* optima for ring instances (the Theorem 2.2 comparator).

    A static algorithm migrates once, before any request, into a balanced
    assignment (loads at most [k], no augmentation) and then never moves.
    Its cost is [migration + crossing], where migration counts processes
    whose server differs from the initial assignment and crossing counts
    requests landing on edges whose endpoints have different servers.

    Three comparators of decreasing exactness / increasing scalability:

    - {!brute_force}: exact over *all* balanced assignments — exponential,
      for tiny instances and for cross-checking the others in tests;
    - {!segmented}: exact over the class of solutions that partition the
      ring into at most [ell] consecutive segments of size at most [k],
      one server per segment (the natural solution shape for ring demands).
      Computed by a cycle DP over cut placements (sliding-window-minimum
      transitions) from each of [k] anchor cuts, followed by an exact
      Hungarian naming of segments to servers to minimize migration.  The
      [s]-th cut after the anchor can only sit at relabeled positions
      [max(s, n - (ell - s) * k) .. min(n - 1, s * k)], a band at most
      [sigma + 1] wide for the slack [sigma = ell * k - n], and the DP
      walks only that band: [O(k * ell * (sigma + 1))] DP steps plus
      [O(n + T)] for counting and pricing, so [O(n)] per solve when the
      servers are exactly full ([n = ell * k]).  An upper bound on the
      true static optimum, exact in the segmented class;
    - {!crossing_lower_bound}: [min] of [sum of x(e)] over cut sets whose
      consecutive gaps are at most [k] — every balanced assignment (of at
      most [k] per server) induces such a cut set when [n > k], so this is
      a certified lower bound on the static optimum (migration discarded).

    Tests verify [crossing_lower_bound <= brute_force <= segmented] on
    exhaustive small instances.  [n <= k] (everything fits one server) is
    rejected: the model needs [n > k] for the ring to be split at all. *)

type solution = {
  assignment : int array;
  migration : int;
  crossing : int;
  total : int;
}

val brute_force : Rbgp_ring.Instance.t -> int array -> solution
(** Exact optimum by exhaustive enumeration.  Raises [Invalid_argument] if
    [ell ** n] exceeds 10^7 states. *)

val segmented : Rbgp_ring.Instance.t -> int array -> solution
(** Exact optimum in the segmented class (see above), or the initial
    assignment when that costs no more.  Requires [n > k]. *)

type scratch
(** The DP's per-instance work space: edge counts and two [ell] by
    [sigma + 1] band layers, reused across solves. *)

val scratch : Rbgp_ring.Instance.t -> scratch

val segmented_window :
  scratch -> int array -> pos:int -> len:int -> solution
(** [segmented_window (scratch inst) trace ~pos ~len] is
    [segmented inst (Array.sub trace pos len)], without the copy; one
    scratch serves any number of windows of the same instance, one at a
    time.  Requires [n > k]. *)

val crossing_lower_bound : Rbgp_ring.Instance.t -> int array -> int
(** Certified lower bound on the static optimum's total cost.
    Requires [n > k]. *)

val cost_of_assignment : Rbgp_ring.Instance.t -> int array -> int array -> solution
(** Price an explicit static assignment against a trace (validates
    balance). *)
