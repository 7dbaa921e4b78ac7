(** The metric spaces used by the metrical-task-system solvers.

    The Section-3 reduction produces MTS instances on a *line* metric over
    the edges of an interval.  The *uniform* metric is included for the
    marking baseline and for tests (it is the metric of classic paging-style
    MTS algorithms, and running it on line instances quantifies how much the
    geometry matters — experiment E9). *)

type t =
  | Line of int  (** [Line s]: states [0..s-1], [d(i,j) = |i-j|] *)
  | Uniform of int  (** [Uniform s]: [d(i,j) = 1] for [i <> j] *)

val size : t -> int
val distance : t -> int -> int -> int
val diameter : t -> int
val check_state : t -> int -> unit
