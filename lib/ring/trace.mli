(** Request traces: fixed (oblivious) or adaptive (adversarial).

    A fixed trace is a pre-generated array of edge requests — the standard
    oblivious-adversary setting in which the paper's randomized guarantees
    hold.  An adaptive trace computes the next request from the current step
    and the online algorithm's *current assignment*; this models the adaptive
    adversary that defeats deterministic algorithms (Lemma 4.1 / the
    [Omega(k)] lower bound of Avin et al.).  Randomized algorithms keep their
    internal coin flips hidden, so an adaptive adversary here sees exactly
    what the lower-bound adversary sees: the realized configuration. *)

type t =
  | Fixed of int array
  | Adaptive of (int -> Assignment.t -> int)
      (** [f step assignment] returns the edge requested at [step]. *)

val fixed : int array -> t
val adaptive : (int -> Assignment.t -> int) -> t

val next : t -> int -> Assignment.t -> int
(** [next t step assignment]: the request at [step].  For fixed traces the
    assignment is ignored; out-of-bounds steps raise [Invalid_argument]. *)

val validate : n:int -> t -> steps:int -> unit
(** Checks that a fixed trace has at least [steps] requests and all edges
    are within [\[0, n)].  Adaptive traces are validated per-step by the
    simulator. *)
