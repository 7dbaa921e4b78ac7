(** The repo-specific rule set, implemented over the compiler's Parsetree.

    Rules are purely syntactic (no typing pass): fast, dependency-free,
    and deterministic.  Heuristic misses are routed through the allowlist
    with written justifications — see DESIGN.md "Static analysis".

    - [r1-poly-compare] — generic [compare]/[Hashtbl.hash] anywhere;
      first-class [=]/[<]/[min]/[max] and structural literals under [(=)]
      in the hot-path libraries (lib/mts, lib/ring, lib/serve, lib/util).
    - [r2-nondeterminism] — [Random.self_init], [Unix.gettimeofday],
      [Unix.time], [Sys.time], [Domain.self] anywhere in lib/.
    - [r3-partial] — [List.hd], [List.tl], [Option.get], unsafe indexing.
    - [r4-global-mutable] — module-level [ref]/[Hashtbl.create]/
      [Array.make]/[Atomic.make]/... in lib/ (shared across pool domains).
    - [r5-catchall-exn] — [try ... with _ ->] and [exception _ ->] cases.
    - [r6-missing-mli] — lib/ modules without an interface file.
    - [r7-domain-safety] — [Domain.*] API use or pool job submission
      ([...Pool.*]) in lib/ modules not on the audited Domain-safety
      allowlist.
    - [r8-hot-io] — per-byte channel reads ([input_byte]/[input_char])
      and closures allocated inside [while]/[for] bodies in the audited
      hot-IO modules (lib/serve, lib/ring/trace.ml, lib/util/binc.ml);
      the channel fallback for pipes is allowlisted with its
      justification.
    - [r9-durability] — bare [open_out*] in the durability-audited
      modules (lib/serve, the trace writers, lib/util/durable.ml itself),
      where persistent state must route through [Durable.atomic_write];
      and catch-all exception handlers around [Fault.*]/[Durable.*] call
      sites in lib/, which would swallow [Injected_crash] and blind the
      crash-recovery tests.  Founding exceptions (the atomic-write
      helper, the deliberate tear path, the regenerable trace writers)
      are allowlisted with their justifications.
    - [r10-net-safety] — raw [Unix.read]/[Unix.write] and unbounded
      [really_input] outside the audited [Sockio] wrappers in the
      networked serving modules.
    - [r11-hot-alloc] — interprocedural: allocation sites transitively
      reachable from the audited hot roots (Engine.ingest*,
      Dynamic_alg.serve and Binc.decode_varints), via the [Effects]
      fixpoint.
    - [r12-transitive-partial] — interprocedural: partiality reachable
      from the serve/net request path with no intervening handler.
    - [r13-comparator-coverage] — comparator-shaped values exposed from
      lib interfaces but never referenced by the test suite. *)

type scope = { area : [ `Lib | `Bin | `Bench | `Other ]; sublib : string option }

val scope_of_path : string -> scope
(** Classifies a (possibly relative) path by its first [lib]/[bin]/[bench]
    segment; [sublib] is the library directory under [lib]. *)

val is_hot : scope -> bool
(** True for the hot-path libraries patrolled by the strict R1 checks. *)

val is_lib : scope -> bool

val check_structure : path:string -> Parsetree.structure -> Finding.t list
(** All expression-level rules (R1, R2, R3, R5, R7, R8, R9) plus the
    top-level mutable-state rule (R4) over one implementation file. *)

val check_signature : path:string -> Parsetree.signature -> Finding.t list
(** Interface files: no expression rules apply today; hook for future
    signature rules. *)

val missing_mli : files:string list -> Finding.t list
(** R6 over a file set: one finding per [lib/**/*.ml] whose [.mli] is not
    in the set.  Pure — testable on synthetic lists. *)

val hot_alloc : Effects.t -> Finding.t list
(** R11 over the inferred effect graph: one finding per direct
    allocation site inside any function transitively reachable from a
    hot root. *)

val transitive_partial : Effects.t -> Finding.t list
(** R12: unhandled partiality sites reachable from the serve/net roots
    without crossing an exception handler. *)

val comparator_coverage : index:Index.t -> tests:Index.t -> Finding.t list
(** R13: comparator-shaped values ([compare]/[equal]/[hash] exact or as
    a [_]-separated segment) exposed in lib interfaces of [index] but
    never referenced by [tests]. *)

val is_comparator_name : string -> bool

val descriptions : (string * string) list
(** [(rule id, one-line description)] for [--list-rules] and the
    reporters. *)

val explain : string -> string option
(** Long-form text for [--explain RULE]: the one-line description, plus
    an extended rationale for the interprocedural rules. *)
