(** The well-behaved clustering strategy of Lemma 3.4.

    This is analysis machinery made executable: given the schedule of an
    optimal (or any) dynamic offline algorithm, it constructs online — with
    knowledge of OPT's current assignment only — a strategy that maintains
    cut edges [E_W] forming segments of size at most [(1+epsilon) k], using
    the merge / move / cut-out / split operations of the Lemma 3.4 proof,
    and whose total cost is at most [O(log k / epsilon) * OPT + 2 n log k].

    Running it validates the heart of Theorem 2.1's analysis (experiment
    E10): the three invariants

    - (IH) [E_W] is a subset of OPT's cut edges,
    - (IM) every segment is [delta]-monochromatic ([delta = 1/(1+epsilon)])
      under OPT's current colors,
    - (IS) every non-majority-colored process in a segment is marked,

    hold after every step, and the realized cost obeys the lemma's bound.

    Costs: the strategy pays 1 when the requested edge is in [E_W] (hit)
    and the travelled distance when a cut edge moves (move); splits are
    free; a merge is a move onto an adjacent cut. *)

type t

type step_stats = {
  newly_marked : int;  (** processes OPT migrated this step *)
  merges : int;
  moves : int;
  cut_outs : int;
  splits : int;
}

val create : Rbgp_ring.Instance.t -> epsilon:float -> t
(** [epsilon] must be in (0, 1/4] (the lemma's technical requirement). *)

val step : t -> opt_assignment:int array -> request:int -> step_stats
(** Feed one step: OPT's assignment when serving the request, and the
    request.  The OPT assignment must be balanced (loads <= k). *)

val hit_cost : t -> int
val total_cost : t -> int
val cut_edges : t -> int list
val segment_sizes : t -> int list

val potential : t -> float
(** The Lemma 3.4 potential
    [(1+eps)/eps * log2(k') * M + sum |S| log2(k' / |S|)]. *)

val replay :
  Rbgp_ring.Instance.t ->
  epsilon:float ->
  trace:int array ->
  schedule:int array array ->
  t
(** Run a whole trace against an offline schedule
    ([schedule.(t)] serves [trace.(t)]), checking invariants at every step;
    raises [Failure] with a diagnostic on any violation. *)
