(** The interval growing algorithm for the hitting game (Section 4.1).

    The algorithm confines its position to a growing interval around the
    starting edge.  Within the current interval [I] it keeps its position
    distributed as [grad smin'(x_I)] — the scaled smooth-minimum gradient of
    the request-count vector restricted to [I], with scale equal to the
    number of edges of [I] — refreshing through the maximal-stay coupling so
    expected movement tracks the distribution's L1 drift (Lemma 4.3 b).
    When every edge of [I] has been requested at least
    [(1 - delta_bar) * |I|] times (where [|I|] counts vertices), the interval
    doubles around its center (a new phase); it never exceeds the full line
    of [k+1] vertices.  At a phase change the position is resampled inside
    the new interval.

    Guarantees being validated empirically (E4/E5): expected total cost at
    most [O(1/(1 - delta_bar) * log k) * OPT_static] (Corollary 4.4), and
    per-interval bounds [E hit <= 2 min(I) + O(ln|I|) |I|],
    [E move <= 4 min(I) + O(ln|I|) |I|] (Lemma 4.3).

    The standalone game has no colors; the deactivation rules
    (monochromatic / dominated) live in the slicing procedure, whose
    [Slicing.grow_seg] applies the same doubling to segments of the ring
    (capped at [min (k+1) n] vertices, no clamping on a cycle). *)

type t

val create : k:int -> ?delta_bar:float -> ?start:int -> Rbgp_util.Rng.t -> t
(** A game on [k] edges.  [delta_bar] defaults to [14/15] (the paper's
    choice for small epsilon); it must lie in [(1/2, 1)].  [start] defaults
    to {!Game.start_edge}. *)

val player : t -> Game.player
val position : t -> int
val interval : t -> int * int
(** Current interval as an inclusive *vertex* range [(vl, vr)]; its edges
    are [vl .. vr-1]. *)

val phases : t -> int
(** Number of growth steps performed so far. *)

val request_count : t -> int -> int
val hit_cost : t -> float
val move_cost : t -> float
val serve : t -> int -> unit

val grow_rule : k:int -> vl:int -> vr:int -> int * int
(** The growth schedule: double the vertex interval [(vl, vr)] around its
    center, clamp into [\[0, k\]], cap the length at [k+1].  Exposed for
    the tests. *)
