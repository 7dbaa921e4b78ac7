(** Interprocedural effect inference: a fixpoint over the cross-module
    index computing a four-bit lattice per value definition, plus the
    hot-root / serve-root reachability the interprocedural rules
    (r11-hot-alloc, r12-transitive-partial) query.

    Optimistic on unknowns (unresolved externals outside the intrinsic
    table contribute nothing), pessimistic on collisions (a name defined
    by several modules unions every candidate's effects).  Deterministic
    and pure: sorted iteration, no clock — [to_json] is a function of the
    sources alone, pinned by a byte-identity test. *)

type eff = {
  alloc : bool;  (** heap-allocates per call *)
  partial : bool;  (** may raise from an unnamed partiality idiom *)
  nondet : bool;  (** reads clock / RNG / [Domain.self] *)
  blocking : bool;  (** blocking syscall or channel operation *)
}

val eff_bot : eff
val eff_union : eff -> eff -> eff
val eff_equal : eff -> eff -> bool

val intrinsic : string list -> (eff * string) option
(** Effect of a stdlib/Unix value by dotted path, with the human label
    used in finding messages; [None] for unknown externals. *)

type direct = {
  d_eff : eff;
  d_what : string;
  d_line : int;
  d_col : int;
  d_handled : bool;
}
(** A direct effect site in a body: a syntactic allocation, or a call to
    an intrinsic. *)

type edge = { to_id : string; e_line : int; e_handled : bool }

type info = {
  node : Index.node;
  direct : direct list;  (** sorted by location *)
  edges : edge list;  (** resolved calls, deduplicated and sorted *)
  mutable eff : eff;  (** the inferred fixpoint *)
}

type t

val infer : ?extra_hot_roots:string list -> Index.t -> t
(** Build call edges, run the fixpoint, compute root reachability.
    [extra_hot_roots] adds display names ("Mod.name") to the built-in
    hot-root specs ([Engine.ingest*], [Dynamic_alg.serve],
    [Binc.decode_varints*]). *)

val effect_of : t -> string -> eff
(** By node id; [eff_bot] for unknown ids. *)

val info : t -> string -> info option

val node_ids : t -> string list
(** Sorted. *)

val hot_roots : t -> string list
(** Sorted node ids. *)

val serve_roots : t -> string list

val hot_reach : t -> string -> string option
(** [Some root_display] when the node is transitively reachable from a
    hot root (handled edges crossed — allocation escapes handlers). *)

val serve_reach : t -> string -> string option
(** Reachability from the serve/net request path, *not* crossing handled
    edges: a handler on the path is the interposition r12 asks for. *)

val direct_sites : t -> string -> direct list

val to_json : t -> Ljson.t
(** Schema ["rbgp-lint-graph/1"]: roots plus one record per node with
    its effects, direct sites, resolved calls and reachability. *)
