(** The interval growing player of Section 4.1, written once for the
    hitting game on the line and for every interval of the Slicing
    procedure on the ring ([Rbgp_core.Slicing]).

    The player keeps its position inside a growing interval [I] around
    its starting edge, distributed as [grad smin'(x_I)]: the smooth-min
    gradient of the request counts on [I], scaled by its number of edges.
    It moves through the maximal-stay coupling, so expected movement
    tracks the distribution's L1 drift (Lemma 4.3 b).  The step is
    {!Rbgp_util.Smin_weights.step}: O(1) on a miss, and bit-identical to
    recomputing the gradient on every request.  Once every edge of [I]
    has [(1 - delta_bar) * |I|] requests ([|I|] counts vertices), [I]
    doubles around its center and the position is drawn again from the
    grown interval's distribution.

    Validated empirically (E4/E5): expected cost at most
    [O(1/(1 - delta_bar) * log k) * OPT_static] (Corollary 4.4), and per
    interval [E hit <= 2 min(I) + O(ln|I|) |I|],
    [E move <= 4 min(I) + O(ln|I|) |I|] (Lemma 4.3). *)

(** The player's only parameter. *)
type geometry =
  | Line of int
      (** [Line k]: the [k] edges of a line of [k+1] vertices; a grown
          interval is shifted back inside it *)
  | Ring of { n : int; k : int }
      (** the [n] edges of a cycle; intervals wrap and hold at most
          [min (k+1) n] vertices *)

type t

val create :
  geometry -> ?delta_bar:float -> counts:float array -> Rbgp_util.Rng.t ->
  int -> t
(** [create g ~counts rng start]: a player on the one-edge interval
    [start].  [counts] holds the caller's request count per edge of [g]:
    the caller raises [counts.(e)] before serving [e], and the player
    reads them when it grows.  Players may share [counts] and [rng].
    [delta_bar] defaults to [14/15] and must lie in [(1/2, 1)]. *)

val line : k:int -> ?delta_bar:float -> ?start:int -> Rbgp_util.Rng.t -> t
(** The hitting game's player on [Line k], with its own counts; [start]
    defaults to {!Game.start_edge}. *)

val step : t -> int -> int
(** [step t e], for an edge the interval holds, once its count is raised:
    the coupled move.  Returns the distance moved. *)

val due : t -> bool
(** The growth test, on the cached smallest count. *)

val double : t -> unit
(** The growth schedule.  Call {!resample} before the next {!step} or
    {!due}. *)

val resample : t -> int
(** Rebuild the weights from the counts and draw the position from the
    grown distribution.  Returns the distance moved. *)

val player : t -> Game.player
(** The game on [t]: a request raises its count, charges a hit on the
    player's edge, steps when the interval holds it and grows while
    {!due}.  Hit and move costs are the adapter's own. *)

val position : t -> int
val holds : t -> int -> bool

val first : t -> int
(** The interval's first vertex; its edges are [first .. first + width - 2]
    (modulo [n] on the ring). *)

val width : t -> int
(** Vertices. *)

val rank : t -> int
(** Growth steps so far. *)

val restore : t -> first:int -> width:int -> position:int -> rank:int -> unit
(** Put the player on a saved interval and edge, rebuilding its weights
    from the counts.  The caller checks the values. *)
