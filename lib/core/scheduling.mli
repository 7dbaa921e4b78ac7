(** The Scheduling procedure (Section 4.2): cluster-to-server assignment
    with rebalancing.

    Let [X] be the maximum cluster size and [D = max(2, X/k)].  Whenever a
    server's load exceeds [(D + eps') k], the procedure moves clusters away
    until it is back to at most [D k]: repeatedly take the smallest
    non-empty cluster [C] on the overloaded server and move it to a server
    [s'] with load at most [k] (one exists, the average load is at most
    [k]); when [C] itself exceeds [k], first evacuate [s']'s content to a
    third server with load at most [k], so [s'] ends with [C] alone.

    After every rebalance the maximum load is at most
    [(max(2, X/k) + eps') k]; combined with the cluster-size bounds of
    Lemma 4.12 / Corollary 4.10 this yields the [(3 + 2 eps') k] capacity
    bound of Lemma 4.13.  The rebalancing cost is bounded by the clustering
    costs via Lemma 4.20.

    The procedure mutates the [server] fields of the clusters it is given
    and keeps a counter of the processes it moved ([rebalance_cost],
    Section 4.5.2's [cost_bal]). *)

type t

val create : Rbgp_ring.Instance.t -> eps':float -> t

val rebalance : t -> Clustering.cluster list -> unit
(** Restore the load bound over the given clusters (all of them, including
    empty color clusters). *)

val overloaded : t -> Clustering.cluster list -> bool
(** Is some server's load above the trigger {!threshold}?  Never after a
    rebalance over the same clusters: it moves nothing then. *)

val rebalance_cost : t -> int
val loads : t -> Clustering.cluster list -> int array
val threshold : t -> x_max:int -> float
(** The trigger threshold [(max(2, X/k) + eps') k]. *)

val save : Buffer.t -> t -> unit
(** The procedure's only state: its rebalancing cost (cluster servers
    belong to {!Clustering}'s snapshot). *)

val load : Rbgp_util.Binc.reader -> t -> unit
