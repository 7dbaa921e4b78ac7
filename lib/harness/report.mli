(** The experiment suite — the repository's stand-in for the paper's
    missing evaluation section.

    Each experiment Ei prints one or more tables (see DESIGN.md section 3
    for the index and EXPERIMENTS.md for expected-vs-measured).  [quick]
    shrinks sizes/seeds for CI-speed runs; the default sizes complete in
    seconds to a couple of minutes each.

    All randomness is derived from the experiment's [seed] argument, so
    every table is exactly reproducible.  Algorithms are built by name
    through {!Rbgp_serve.Registry}, from the same seed scheme as
    [rbgp serve]. *)

val all : (string * string * (?quick:bool -> ?seed:int -> unit -> unit)) list
(** [(id, one-line description, runner)] for ["e1"] ... ["e14"], in
    order; the description names the lemma or theorem the experiment
    checks. *)

val run : ?quick:bool -> ?seed:int -> string -> unit
(** Run one experiment by id (["e1"] ... ["e14"] or ["all"]).  Raises
    [Invalid_argument] on unknown ids. *)
