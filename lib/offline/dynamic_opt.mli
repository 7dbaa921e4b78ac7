(** Exact *dynamic* offline optimum for tiny ring instances.

    The dynamic comparator of Theorem 2.1 may migrate at every step.  For
    instances whose balanced-configuration space is small we compute it
    exactly with a Viterbi-style dynamic program over all assignments with
    loads at most [k]:

    [cost_t(c) = min over c' of (cost_(t-1)(c') + hamming(c', c)) + comm(c, e_t)]

    (migration before serving, matching {!Rbgp_ring.Simulator.replay_cost}).
    The state space is every function [n -> ell] with loads at most [k];
    creation refuses instances with more than [max_states] (default 3000).

    The table holds the states, their pairwise migration distances as one
    byte per pair ([m^2] bytes, row-major; a distance over 255 raises
    [Invalid_argument] at enumeration) and, per edge, one byte per state
    marking the states that cut it.  Two solvers read it:

    - the {b pruned} solver (default) uses that every cost row after a
      distance transform is 1-Lipschitz in Hamming distance: a request
      can lower the transformed cost only of the states that cut the
      previous request's edge, and only by one, so a step tests just
      those states against the dominance frontier of the others.  That
      is [O(m + |C| |F| + |F| |T|)] per request, with [|T|] the states
      that cut the previous edge, [|C|] the candidates left by the
      argmin filter and [|F|] the frontier (typically a small fraction
      of [m]).  It keeps each step's cost row ([m] bytes) and rebuilds
      the schedule's parents from them on the way back, [O(m)] per
      step;
    - the {b reference} solver ([~reference:true]) is the exhaustive
      [O(T * m^2)] relaxation with a parent per state and step, kept as
      the cross-check oracle (a qcheck property pits the two against
      each other on random small instances under every workload
      generator).

    Both return one schedule: the final state is the lowest-index
    argmin, and the parent of state [j] at a step is the least
    [(c(i) + d(i, j), c(i), i)] over the step's input costs [c] — the
    cheapest source on an equal value, then the lowest index.  Each
    solver verifies its schedule by replay.

    This is the certified ground truth for E3/E10 on small instances and the
    cross-check for {!Lower_bound} (the lower bound must never exceed it). *)

type t

val canonical : int array -> int array
(** Canonical representative of an assignment under ring rotation and
    server relabeling: the lexicographically smallest relabeled rotation,
    with servers renamed in order of first appearance.  Invariant:
    [canonical (rotate r (relabel pi a)) = canonical a] for every rotation
    [r] and server permutation [pi].  Rotation and relabeling preserve
    Hamming distances and edge-crossing structure, so each canonical class
    is an isometric orbit of the configuration space; the fixed initial
    assignment is what prevents the DP from quotienting by it. *)

val enumerate_states : Rbgp_ring.Instance.t -> ?max_states:int -> unit -> t
(** Precomputes the configuration space, pairwise migration distances
    (each pair once, [m^2] bytes) and the per-edge cut rows (shared
    across traces on the same instance). *)

val shared : Rbgp_ring.Instance.t -> ?max_states:int -> unit -> t
(** Memoized {!enumerate_states}: a process-wide, mutex-protected cache
    keyed by the exact instance shape (with the canonical form of the
    initial assignment folded into the hash).  The returned table is
    immutable and safe to share read-only across {!Rbgp_util.Pool} workers;
    the harness builds each experiment's tables through this so repeated
    builds — per workload cell, per qcheck case, per bench iteration — are
    free after the first. *)

val state_count : t -> int

val solve : ?reference:bool -> t -> int array -> Rbgp_ring.Cost.t
(** Exact minimum total cost for the trace; the returned cost splits
    communication/migration according to one optimal schedule.
    [~reference:true] forces the exhaustive oracle solver. *)

val solve_schedule :
  ?reference:bool -> t -> int array -> int array array * Rbgp_ring.Cost.t
(** Also return the optimal schedule ([schedule.(t)] = assignment serving
    request [t]), e.g. to replay it through {!Well_behaved} style analyses
    or {!Rbgp_ring.Simulator.replay_cost} (which must agree on the cost —
    a test asserts this). *)
