(** Baseline online algorithms.

    These are the comparators the paper's contribution is measured against
    in E8:

    - {!never_move}: keep the initial assignment forever.  Offline-feasible
      (augmentation 1), optimal on demand that matches the initial layout,
      helpless under drift.
    - {!greedy_colocate}: the folklore reactive heuristic — when a request
      crosses servers, swap one endpoint with a process of the other
      server, after the edge has been hit [threshold] times since the
      processes last moved.  Deterministic, keeps perfect balance
      (augmentation 1), and is exactly the kind of algorithm the adaptive
      adversary punishes.
    - {!counter_threshold}: a deterministic interval-based repartitioner in
      the spirit of the O(k log k)-competitive deterministic algorithms
      (Avin et al.): intervals as in Section 3, each holding a cut edge;
      when the requests at the current cut since it last moved reach
      [theta], move the cut to the least-requested edge of the interval.
      Subject to the Omega(k) deterministic lower bound, which E4/E8
      exhibit.
    - {!static_oracle}: an *offline-assisted* baseline: it receives the
      whole trace up front, computes the segmented static optimum
      ({!Rbgp_offline.Static_opt.segmented}), migrates into it on the first
      request and never moves again.  It realizes (up to its one-shot
      migration) the Theorem 2.2 comparator, so the static algorithm's
      measured ratio against it is a direct empirical competitive ratio.

    Every baseline carries the {!Rbgp_ring.Online.t} snapshot hooks: a
    versioned byte string with the assignment and the algorithm's
    counters, refused on a version, name or length mismatch or trailing
    bytes, so serving checkpoints of baselines are O(state) like those of
    the paper's algorithms. *)

val never_move : Rbgp_ring.Instance.t -> Rbgp_ring.Online.t

val greedy_colocate :
  ?threshold:int -> Rbgp_ring.Instance.t -> Rbgp_ring.Online.t

val counter_threshold :
  ?theta:int -> epsilon:float -> Rbgp_ring.Instance.t -> Rbgp_ring.Online.t

val static_oracle : Rbgp_ring.Instance.t -> trace:int array -> Rbgp_ring.Online.t

val component_learning : Rbgp_ring.Instance.t -> Rbgp_ring.Online.t
(** The learning-variant strategy in the spirit of Henzinger et al.
    (SIGMETRICS 2019) and Forner et al. (APOCS 2021): track the connected
    components of the requested edges with a union-find; whenever a request
    joins two components that together still fit in a server ([<= k]
    processes), merge them and collocate the merged component (moving the
    smaller side, evicting unrelated processes to the least-loaded server
    when the target is full).  Components larger than [k] are never formed:
    such a request is simply paid.

    On *perfectly partitionable* demand — requests drawn from a graph whose
    components fit into servers, the learning variant's assumption — this
    converges to zero marginal cost.  On genuine ring demand the components
    immediately grow past [k] and the strategy degenerates to paying every
    cross-edge, which is precisely the gap motivating the paper
    (experiment E14).  Deterministic; augmentation 1. *)
