(** The repo-specific rule set, implemented over the compiler's Parsetree.

    Rules are purely syntactic (no typing pass): fast, dependency-free,
    and deterministic.  Heuristic misses are routed through the allowlist
    with written justifications — see DESIGN.md "Static analysis".  Each
    site gets one rule id.

    - [r1-poly-compare] — generic [compare]/[Hashtbl.hash] anywhere;
      first-class [=]/[<]/[min]/[max] and structural literals under [(=)]
      in the hot-path libraries (lib/mts, lib/ring, lib/serve, lib/util).
    - [r2-nondeterminism] — [Random.self_init], [Unix.gettimeofday],
      [Unix.time], [Sys.time], [Clock.now_ns] anywhere in lib/.
    - [r3-partial] — [List.hd], [List.tl], [Option.get], unsafe indexing.
    - [r4-global-mutable] — module-level [ref]/[Hashtbl.create]/
      [Array.make]/[Atomic.make]/... in lib/ (shared across pool domains).
    - [r5-catchall-exn] — [try ... with _ ->] and [exception _ ->] cases.
    - [r6-missing-mli] — lib/ modules without an interface file.
    - [r7-domain-safety] — [Domain.*] API use or pool job submission
      ([...Pool.*]) in lib/ modules not on the audited Domain-safety
      allowlist.
    - [r9-durability] — bare [open_out*] in the durability-audited
      modules (lib/serve, the trace writers, lib/util/durable.ml itself),
      where persistent state must route through [Durable.atomic_write];
      and handlers binding every exception ([e], [_ as e]) around
      [Fault.*]/[Durable.*] call sites in lib/, which would swallow
      [Injected_crash] and blind the crash-recovery tests.
    - [r10-net-safety] — raw [Unix.read]/[Unix.write]/... outside the
      audited [Sockio] wrappers, and unbounded ([really_input]) or
      per-byte ([input_byte]) channel reads, in lib/serve and the two
      ingest decoders (lib/ring/trace.ml, lib/util/binc.ml).
    - [r11-hot-alloc] — interprocedural: allocation sites in functions
      transitively reachable from the audited hot roots (Engine.ingest*,
      Dynamic_alg.serve, Binc.decode_varints and the request codec's
      loops Proto.encode_edges and Proto.decode_edges).
    - [r12-transitive-partial] — interprocedural: partiality other than
      r3's reachable from the serve/net request path with no intervening
      handler.
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
(** Every per-file rule (r1–r5, r7, r9, r10) over one implementation
    file. *)

val missing_mli : files:string list -> Finding.t list
(** R6 over a file set: one finding per [lib/**/*.ml] whose [.mli] is not
    in the set.  Pure — testable on synthetic lists. *)

val hot_alloc : Effects.t -> Finding.t list
(** R11 over the call graph: one finding per direct allocation site
    inside any function transitively reachable from a hot root. *)

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
