(** The offline comparator of the hitting game.

    The game's yardstick (Section 4.1) is the optimal *static* strategy:
    pick one edge [p] at the start, pay the travel [|start - p|], then pay
    one per request to [p]. *)

val static : k:int -> ?start:int -> int array -> float
(** Exact static optimum for a request sequence over edges [0..k-1]. *)
