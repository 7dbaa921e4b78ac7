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

val e1_dynamic_load : ?quick:bool -> ?seed:int -> unit -> unit
(** Lemma 3.1: the dynamic algorithm's load never exceeds [2 k' - 1]. *)

val e2_interval_ratio : ?quick:bool -> ?seed:int -> unit -> unit
(** Lemma 3.3: ONL_R's interval cost against the exact optimal
    interval-based strategy OPT_R, as k grows. *)

val e3_dynamic_ratio : ?quick:bool -> ?seed:int -> unit -> unit
(** Theorem 2.1: dynamic algorithm vs exact dynamic OPT (tiny instances)
    and vs the certified windowed lower bound (at scale), on drifting
    demand where static placements fail. *)

val e4_deterministic_lower_bound : ?quick:bool -> ?seed:int -> unit -> unit
(** Lemma 4.1: the chase adversary forces deterministic hitting-game
    players to Omega(k) while interval growing stays polylogarithmic. *)

val e5_hitting_ratio : ?quick:bool -> ?seed:int -> unit -> unit
(** Corollary 4.4: interval growing vs the exact static optimum of the
    hitting game, as k grows. *)

val e6_static_load : ?quick:bool -> ?seed:int -> unit -> unit
(** Lemma 4.13: the static algorithm's load stays below [(3 + 2 eps') k]. *)

val e7_static_ratio : ?quick:bool -> ?seed:int -> unit -> unit
(** Theorem 2.2: static algorithm vs the segmented static optimum,
    including the strictness check on short cheap sequences. *)

val e8_head_to_head : ?quick:bool -> ?seed:int -> unit -> unit
(** All algorithms x all workloads (including the adaptive cut-chaser). *)

val e9_mts_ablation : ?quick:bool -> ?seed:int -> unit -> unit
(** The Section-3 reduction instantiated with each MTS solver. *)

val e10_well_behaved : ?quick:bool -> ?seed:int -> unit -> unit
(** Lemma 3.4: the well-behaved strategy replayed against exact dynamic
    OPT schedules — invariants and cost bound. *)

val e11_epsilon_ablation : ?quick:bool -> ?seed:int -> unit -> unit
(** The augmentation/cost tradeoff: both core algorithms swept over
    epsilon; more augmentation means fewer, wider intervals (dynamic) and
    laxer rebalancing (static), hence lower cost. *)

val e12_parameter_ablation : ?quick:bool -> ?seed:int -> unit -> unit
(** Internal design-choice ablations called out in DESIGN.md: the smin
    scale [c] of the randomized MTS solver (reaction speed vs movement)
    and the monochromaticity threshold [delta_bar] of the slicing
    procedure (eager vs lazy deactivation). *)

val e13_time_series : ?quick:bool -> ?seed:int -> unit -> unit
(** Cumulative cost over time for the core algorithms and comparators on a
    drifting workload — the "figure" showing strict competitiveness (no
    start-up spike for onl-static) and the dynamic algorithm tracking the
    drift. *)

val e14_learning_variant : ?quick:bool -> ?seed:int -> unit -> unit
(** The paper's positioning against the learning variant (Henzinger et
    al.): on perfectly partitionable demand the component-learning
    baseline converges to ~zero marginal cost, while on genuine ring
    demand its component-size assumption breaks immediately — and the
    paper's algorithms handle both. *)

val all : (string * string * (?quick:bool -> ?seed:int -> unit -> unit)) list
(** [(id, one-line description, runner)] for the CLI and the bench
    harness. *)

val run : ?quick:bool -> ?seed:int -> string -> unit
(** Run one experiment by id (["e1"] ... ["e14"] or ["all"]).  Raises
    [Invalid_argument] on unknown ids. *)
