(** The Slicing procedure (Section 4.2, Algorithm 1).

    One growing interval lives around every initial cut edge of the
    instance: a {!Rbgp_hitting.Interval_growing} player on the ring
    geometry, the same player E4 and E5 run on the line.  Inside its
    interval each active player keeps its cut edge distributed as
    [grad smin'(x_I)] of the global request counts restricted to the
    interval; when every edge has been requested at least
    [(1 - delta_bar) |I|] times the interval doubles around its center,
    capped at [k+1] vertices, and the cut is drawn again.  Slicing adds
    the rules below, between a doubling and its draw.

    Two deactivation rules keep the interval structure sparse:
    - an interval that becomes [delta_bar]-monochromatic with respect to
      the *initial* colors right after growing stops and drops its cut
      edge (the region belongs to one server's processes; no cut needed);
    - growing interval [I] deactivates every active interval contained in
      it (dominated), dropping their cut edges — this is what bounds the
      overlap (Lemma 4.21: every process is in O(log k) intervals).

    The procedure emits the resulting cut-edge events; the Clustering
    procedure consumes them.  Cut edges of distinct intervals may
    transiently coincide on the ring — consumers receive the per-interval
    events and must dedupe (the driver {!Static_alg} maintains multiset
    counts). *)

type status =
  | Active
  | Mono  (** deactivated: became [delta_bar]-monochromatic *)
  | Dominated  (** deactivated: contained in a grown interval *)

type event =
  | Cut_moved of { id : int; from_edge : int; to_edge : int; dist : int }
      (** the cut of interval [id] moved; [dist] is the travelled distance
          inside the interval (the clustering procedure's moving cost) *)
  | Cut_removed of { id : int; edge : int; reason : status }

type t

val create :
  ?delta_bar:float -> Rbgp_ring.Instance.t -> Rbgp_util.Rng.t -> t
(** Requires [n > k].  [delta_bar] defaults to [14/15]; {!Static_alg}
    passes [max (2/(2+eps')) (14/15)]. *)

val serve : t -> int -> event list
(** Process a request; returns the emitted events in order.  The active
    intervals holding the edge come from an edge index, and each one's
    cut moves by {!Rbgp_hitting.Interval_growing.step}, so a request that
    emits nothing costs O(1) per such interval and allocates nothing. *)

val initial_cuts : t -> int list
(** The cut edges at creation (one per initial cut edge of the instance). *)

val active_cuts : t -> (int * int) list
(** Current [(interval id, cut edge)] pairs of active intervals. *)

val interval_seg : t -> int -> Rbgp_ring.Segment.t
val interval_status : t -> int -> status
val interval_rank : t -> int -> int
(** Growth steps performed by interval [id]. *)

val interval_count : t -> int
val hit_cost : t -> float
(** Sum over intervals of hitting costs charged at the current cut
    (Section 4.5.1's [sum cost_hit(I)]). *)

val move_cost : t -> float
(** Sum of cut-edge movement distances ([sum cost_move(I)]). *)

val save : Buffer.t -> t -> unit
(** Append the procedure's whole state: request counts, rng words, each
    interval's segment, status, cut and rank, and the hit/move costs.
    O(n + intervals), independent of the number of requests served. *)

val load : Rbgp_util.Binc.reader -> t -> unit
(** Read a {!save} into a freshly created instance on the same problem
    instance, recomputing each interval's cut distribution from the
    counts.  Raises [Invalid_argument] on malformed input, including
    an active interval whose cut lies outside it. *)
