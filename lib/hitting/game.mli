(** The hitting game on the line (Section 4.1).

    A line of [k+1] nodes has [k] edges [0 .. k-1]; a player occupies one
    edge, starting from the central edge [ceil(k/2) - 1] (the paper's
    [e_s, s = ceil(k/2)] in 1-based indexing).  Each step an edge is
    requested: if it is the player's position the player pays 1 (hitting
    cost); moving costs the travelled distance.  The comparator is the best
    *static* strategy (move once at the start, never again).

    This module defines the player interface that
    {!Interval_growing.player} and {!greedy_dodge} implement, plus drivers
    for oblivious and adaptive request sequences.  The adaptive
    driver sees the player's realized position — exactly the adversary of
    Lemma 4.1, which forces any deterministic player to pay
    [Omega(k) * OPT]. *)

type player = {
  position : unit -> int;
  serve : int -> unit;  (** request an edge in [\[0, k)] *)
  hit_cost : unit -> float;
  move_cost : unit -> float;
}

val total_cost : player -> float

val start_edge : k:int -> int
(** The central starting edge [ceil(k/2) - 1] (0-based). *)

val greedy_dodge : k:int -> ?start:int -> unit -> player
(** The archetypal deterministic player the Lemma 4.1 adversary defeats:
    when its edge is requested it dodges one position toward the side whose
    edges have received fewer requests so far.  It pays ~1 per adversarial
    step while the static optimum pays ~T/k + k, realizing the Theta(k)
    separation. *)

val run : player -> int array -> unit
(** Feed an oblivious request sequence. *)

val run_adaptive : player -> steps:int -> next:(int -> int -> int) -> int array
(** [run_adaptive p ~steps ~next]: at each step [t], request
    [next t (p.position ())]; returns the generated sequence (so it can be
    re-priced offline). *)
