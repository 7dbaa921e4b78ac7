(** Metrical task systems: the online problem the Section-3 reduction
    targets, and the common interface of its solvers.

    An MTS instance over a metric [(S, d)] starts in state [s0]; each step a
    cost vector [T] arrives, the solver moves to a state [s'] and pays
    [d(s, s') + T(s')].  The ring reduction only ever emits unit tasks: a
    request on an edge becomes the indicator vector [T = 1_e] of one state
    [e] of one interval's line metric.  The interface is therefore
    indicator-native: a task is the state [e] it charges, and a step pays
    [d(s, s') + [s' = e]].  The paper plugs an arbitrary
    [alpha(k)]-competitive MTS algorithm into each interval; here solvers
    are first-class values so the composed algorithm can be instantiated
    with any of {!Work_function}, {!Smin_mw}, {!Hst_mts} or {!Marking}
    (experiment E9 ablates this choice). *)

type t
(** A running solver instance with internal cost accounting. *)

type factory = Metric.t -> start:int -> rng:Rbgp_util.Rng.t -> t
(** Solvers are created per MTS instance.  Deterministic solvers ignore the
    rng. *)

val make :
  name:string ->
  metric:Metric.t ->
  start:int ->
  next:(int -> int -> int) ->
  save:(Buffer.t -> unit) ->
  load:(Rbgp_util.Binc.reader -> unit) ->
  t
(** [make ~name ~metric ~start ~next ~save ~load] wraps a transition
    function [next task_state current_state -> new_state] with state
    tracking and cost accounting.  [next] sees only tasks already checked
    to be in range.  [save] and [load] are the solver's own state codec:
    [save] appends everything [next] reads besides the current state
    (counts, work vectors, rng words), and [load] reads it back into the
    live solver, recomputing every cache derived from it.  Contract:
    after {!restore} of a {!snapshot}, a freshly built solver on the same
    metric and start state makes exactly the moves and rng draws the
    original would have made, and snapshots to the same bytes.  Used by
    the solver modules; exposed for tests that need scripted solvers,
    whose [next] reads no state of its own ([~save:ignore ~load:ignore]). *)

val snapshot : Buffer.t -> t -> unit
(** Append the state, the hit/move/steps counters (as varint counts) and
    the solver's own [save]. *)

val restore : Rbgp_util.Binc.reader -> t -> unit
(** Inverse of {!snapshot} on a freshly built solver.  Raises
    [Invalid_argument] on truncated input, an out-of-range state or a
    count vector of the wrong length. *)

val name : t -> string
val metric : t -> Metric.t
val state : t -> int

val serve : t -> int -> int
(** [serve t e] feeds the unit task charging state [e] and returns the new
    state [s'].  Accumulates [hit] (1 when [s' = e], else 0) and [move]
    ([d(s, s')]).  Raises [Invalid_argument] when [e] is not a state of
    the metric. *)

val hit_cost : t -> float
val move_cost : t -> float
val total_cost : t -> float
(** The accumulated costs.  Both are whole numbers (a hit costs 1, a move
    an integer distance), so the solver counts them as ints — a step
    allocates nothing for its accounting — and these convert on read,
    exactly for totals below [2{^53}]. *)

val steps : t -> int
(** Number of tasks served so far. *)
