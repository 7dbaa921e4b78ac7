(** Feasible offline schedules at scale: an *upper* bound on dynamic OPT.

    The exact dynamic optimum ({!Dynamic_opt}) is only computable on tiny
    instances, and {!Lower_bound.dynamic_lb} certifies it from below.  This
    module closes the bracket from above with a concrete feasible schedule:
    split the time horizon into windows of [window] requests, compute the
    segmented static optimum of each window, and hold that assignment for
    the window's duration (the first window also pays the migration from
    the initial assignment; subsequent windows pay the diffs).  The result
    is the exact cost of a valid offline schedule with strict capacities,
    hence [dynamic OPT <= windowed <= static OPT + migrations].

    [best] sweeps a geometric grid of window sizes and returns the
    cheapest — a simple but effective offline baseline (small windows track
    drift, large windows amortize migration; the sweep finds the
    crossover).  Experiment E3 reports the resulting bracket
    [LB <= OPT <= UB]. *)

val best :
  Rbgp_ring.Instance.t -> int array -> ?windows:int list -> unit ->
  int * Rbgp_ring.Cost.t
(** [(window, cost)] minimizing {!windowed} over the candidate list
    (default: powers of 4 from 64 up to the trace length, plus the whole
    horizon). *)
