(** The call graph over the cross-module index, and its reachability from
    the two root sets the interprocedural rules query: hot roots for
    r11-hot-alloc, serve roots for r12-transitive-partial.

    Optimistic on unknowns (unresolved externals outside the intrinsic
    table contribute nothing), pessimistic on collisions (a name defined
    by several modules or several times in one file has an edge to every
    candidate).  Deterministic and pure: sorted iteration, no clock —
    [to_json] is a function of the sources alone, pinned by a
    byte-identity test. *)

type edge = { to_id : string; e_line : int; e_handled : bool }

type info = {
  node : Index.node;
  direct : Index.site list;
      (** syntactic allocations plus intrinsic calls, sorted by location *)
  edges : edge list;  (** resolved calls, deduplicated and sorted *)
}

type t

val infer : ?extra_hot_roots:string list -> Index.t -> t
(** Build call edges and compute root reachability.  [extra_hot_roots]
    adds display names ("Mod.name") to the built-in hot-root specs
    ([Engine.ingest*], [Dynamic_alg.serve], [Binc.decode_varints*],
    [Proto.encode_edges], [Proto.decode_edges]). *)

val info : t -> string -> info option

val node_ids : t -> string list
(** Sorted. *)

val hot_reach : t -> string -> string option
(** [Some root_display] when the node runs per call and is transitively
    reachable from a hot root (handled edges crossed — allocation
    escapes handlers). *)

val serve_reach : t -> string -> string option
(** Reachability from the serve/net request path, *not* crossing handled
    edges: a handler on the path is the interposition r12 asks for. *)

val to_json : t -> Ljson.t
(** Schema ["rbgp-lint-graph/2"]: roots plus one record per node with
    its direct sites, resolved calls and reachability. *)
