(** The shifted interval decomposition of the ring (Section 3.1).

    The paper covers the ring with [ell' = ceil(n / k')] intervals of
    exactly [k' = ceil((1+epsilon) k)] edges each, letting the last
    interval overlap the first.  This implementation uses the overlap-free
    variant: the [n] edges are partitioned into
    [ell' = min(ceil(n/k'), floor(n/(k+1)))] contiguous intervals of
    near-equal widths (either [floor(n/ell')] or [ceil(n/ell')], all at
    least [k+1] and close to [k']).  Every edge belongs to exactly one
    interval; consecutive intervals share one vertex.

    Why this is faithful: each interval still spans more than [k+1]
    vertices, so any schedule with loads at most [k] keeps a cut edge
    inside every interval (the fact Lemma 3.6 needs), and the random-shift
    argument is unchanged (interval borders sit at [shift] plus fixed
    offsets, so a uniformly random [shift] makes any fixed position a
    border with probability [ell'/n <= 1/k']).  What it buys: cut edges of
    distinct intervals can never coincide or cross, so the slices always
    partition the ring and a cut-edge move of distance [d] migrates exactly
    [d] processes — Observation 3.2 holds with equality instead of only as
    an upper bound (the overlapping variant can swap slice ownership inside
    the overlap region, where a 1-step cut move may relabel whole slices).

    With cut edge [a_i] chosen inside interval [i], server [i] hosts the
    processes [a_i + 1 .. a_(i+1)] (cyclically); slice sizes are at most
    [width i + width (i+1) - 1 <= 2 max_width - 1], giving the
    [(2 + O(epsilon)) k] resource augmentation of Lemma 3.1. *)

type t = private {
  n : int;
  k' : int;  (** requested interval width [ceil((1+epsilon) k)] *)
  ell' : int;  (** number of intervals *)
  shift : int;  (** rotation of the decomposition, in [\[0, n)] *)
  widths : int array;  (** actual edge count per interval, length [ell'] *)
}

val make : n:int -> k:int -> epsilon:float -> shift:int -> t
(** Requires [n >= 2], [k >= 1], [epsilon > 0], [0 <= shift < n]. *)

val width : t -> int -> int

val base : t -> int -> int
(** First edge (and first vertex) of interval [i]. *)

val locate : t -> int -> int * int
(** The unique [(interval, local_index)] of an edge. *)

val to_global : t -> int -> int -> int
(** [to_global t i local] = global edge index of local edge [local] of
    interval [i]. *)

val slices_of_cuts : t -> int array -> (int * Segment.t) array
(** Given per-interval cut edges ([cuts.(i)] inside interval [i]), the
    server-to-slice map: server [i] owns the processes strictly after its
    cut up to (and including the first endpoint of) the next interval's
    cut.  Slices partition the ring; with a single interval the whole ring
    goes to server 0. *)

val max_slice_len : t -> int
(** Largest possible slice: [max over i of width i + width (i+1) - 1]
    (or [n] when there is one interval). *)
