(** Exact *dynamic* offline optimum for tiny ring instances.

    The dynamic comparator of Theorem 2.1 may migrate at every step.  A
    request costs 1 when its two processes sit on different servers and a
    migration costs 1 per moved process, so no cost reads a server's
    name: the optimum over assignments equals the optimum over the
    partitions they induce.  For instances whose partition space is small
    we compute it exactly with a Viterbi-style dynamic program

    [cost_t(P) = min over P' of (cost_(t-1)(P') + d(P', P)) + comm(P, e_t)]

    (migration before serving, matching {!Rbgp_ring.Simulator.replay_cost}).
    A state is a partition of the [n] processes into at most [ell] blocks
    of at most [k], written as a restricted-growth string (blocks
    numbered in order of first appearance, so [state.(0) = 0]).  The
    distance [d(P', P)] is the fewest processes any labeling of [P'] must
    move to reach some labeling of [P]: [n] minus the largest total
    overlap of a one-to-one matching of [P']'s blocks with [P]'s — Hamming
    distance quotiented by relabeling, still a metric.  [cost_0] is the
    same distance from the instance's initial assignment.  Creation
    refuses instances with more than [max_states] partitions (default
    3000).

    The table holds the states, their pairwise distances as one byte per
    pair ([m^2] bytes, row-major; a distance over 255 raises
    [Invalid_argument] at enumeration) and, per edge, one byte per state
    marking the states that cut it.  Two solvers read it:

    - the {b pruned} solver (default) uses that every cost row after a
      distance transform is 1-Lipschitz in [d]: a request can lower the
      transformed cost only of the states that cut the previous request's
      edge, and only by one, so a step tests just those states against
      the dominance frontier of the others.  That is
      [O(m + |C| |F| + |F| |T|)] per request, with [|T|] the states that
      cut the previous edge, [|C|] the candidates left by the argmin
      filter and [|F|] the frontier (typically a small fraction of [m]).
      It keeps each step's cost row ([m] bytes) and rebuilds the
      schedule's parents from them on the way back, [O(m)] per step;
    - the {b reference} solver ([~reference:true]) is the exhaustive
      [O(T * m^2)] relaxation with a parent per state and step, kept as
      the cross-check oracle (a qcheck property pits the two against
      each other on random small instances under every workload
      generator).

    Both return one partition schedule: the final state is the
    lowest-index argmin (states in lexicographic order), and the parent
    of state [j] at a step is the least [(c(i) + d(i, j), c(i), i)] over
    the step's input costs [c] — the cheapest source on an equal value,
    then the lowest index.

    This is the certified ground truth for E3/E10 on small instances and the
    cross-check for {!Lower_bound} (the lower bound must never exceed it). *)

type t

val enumerate_states : Rbgp_ring.Instance.t -> ?max_states:int -> unit -> t
(** Precomputes the partition space, pairwise migration distances (each
    pair once, [m^2] bytes, each by a pruned search over the [ell!] block
    matchings) and the per-edge cut rows (shared across traces on the
    same instance). *)

val shared : Rbgp_ring.Instance.t -> ?max_states:int -> unit -> t
(** Memoized {!enumerate_states}: a process-wide, mutex-protected cache
    keyed by the exact [(n, ell, k, initial)] of the instance.  The
    returned table is immutable and safe to share read-only across
    {!Rbgp_util.Pool} workers; the harness builds each experiment's tables
    through this so repeated builds — per workload cell, per qcheck case,
    per bench iteration — are free after the first. *)

val state_count : t -> int
(** The number of partitions [m]. *)

val solve : ?reference:bool -> t -> int array -> Rbgp_ring.Cost.t
(** Exact minimum total cost for the trace; the returned cost splits
    communication/migration according to one optimal schedule.
    [~reference:true] forces the exhaustive oracle solver. *)

val solve_schedule :
  ?reference:bool -> t -> int array -> int array array * Rbgp_ring.Cost.t
(** Also return the optimal schedule as labeled assignments
    ([schedule.(t)] = assignment serving request [t]), e.g. to replay it
    through {!Well_behaved} style analyses or
    {!Rbgp_ring.Simulator.replay_cost}.  Each partition of the DP's
    schedule takes, among its labelings nearest in Hamming distance to
    the previous labeled state (the initial assignment at step 0), the
    lexicographically smallest; each move then costs exactly [d], and
    the schedule is replayed and must bill the DP's cost. *)
