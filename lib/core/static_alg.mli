(** The static-model online algorithm (Section 4, Theorem 2.2).

    Composes the three procedures: {!Slicing} maintains cut edges through
    per-interval hitting games; {!Clustering} groups the induced slices
    into bounded-size clusters by initial majority color; {!Scheduling}
    maps clusters to servers and rebalances.  The process-to-server
    assignment is the composite [slice -> cluster -> server].

    Guarantees (validated by E6/E7): expected cost at most
    [O(log^2 k / epsilon^2) * OPT_static], *strictly* (no additive term),
    with resource augmentation [3 + epsilon] ([= 3 + 2 eps'] with
    [eps' = min(epsilon/2, 1)]); the parameter [delta_bar] defaults to the
    paper's [max(2 / (2 + eps'), 14/15)].

    The algorithm starts exactly in the initial assignment (all slices are
    initially 1-monochromatic, every color cluster on its own server), so
    unlike the dynamic-model algorithm it incurs no start-up migration —
    this is what makes strict competitiveness possible. *)

type t

val create :
  ?delta_bar:float -> epsilon:float -> Rbgp_ring.Instance.t -> Rbgp_util.Rng.t -> t
(** Requires [n > k] and [epsilon > 0]. *)

val online : t -> Rbgp_ring.Online.t
(** The {!Rbgp_ring.Online.t} view, with O(state) snapshots:
    {!Slicing.save}, {!Clustering.save} and {!Scheduling.save}.  A
    request on which Slicing emits no event changes nothing after it:
    Clustering and Scheduling run only on events.
    Restoring one into a freshly created instance with the same seed,
    epsilon and problem instance checks the clustering's consistency,
    and that no server is above the rebalance trigger, and rebuilds the
    assignment from it; it raises [Invalid_argument] on malformed or
    inconsistent input. *)

val slicing : t -> Slicing.t
val clustering : t -> Clustering.t

val rebalance_cost : t -> int
val delta_bar : t -> float
val eps' : t -> float
val augmentation : t -> float
(** The claimed capacity factor [3 + 2 eps' ] adjusted for the cluster-size
    slack of Corollary 4.10 at this [delta_bar]. *)
