(* The call graph over the cross-module index and its root reachability:
   what the interprocedural rules r11-hot-alloc and r12-transitive-partial
   read.  Each value definition gets

     direct sites  the syntactic allocations the index found in its body,
                   plus its calls to stdlib values from the intrinsic
                   table below, each an [Index.site];
     edges         its resolved calls into other indexed definitions,
                   each marked when it sits under an exception handler.

   Unresolved references fall back to the intrinsic table; unknown
   externals contribute nothing (optimistic — this is a linter's ratchet,
   not a soundness proof).

   Two root sets anchor the rules:
     - hot roots (r11): the bench-audited allocation-free entry points —
       [Engine.ingest*], the solver step [Dynamic_alg.serve] and the
       [Binc] block decoders;
     - serve roots (r12): the request path — [Engine.ingest*], the net
       tier's frame handlers and the tenant router's serve entries.

   Determinism: sorted iteration everywhere, no wall clock, and the
   graph dump is a pure function of the sources (pinned by a
   byte-identity test). *)

(* --- the intrinsic table ----------------------------------------------- *)

(* The stdlib values the rules care about, as the site they make at their
   call: allocating, or partial from an *unnamed* idiom
   ([failwith]/[invalid_arg] carry a written invariant and do not count).
   [List.hd], [List.tl] and [Option.get] are absent: r3-partial flags them
   everywhere. *)
let intrinsic path : Index.site_kind option =
  match path with
  (* allocation *)
  | [ "@" ] | [ "List"; "append" ] -> Some (Index.Alloc "list append (@)")
  | [ "^" ] -> Some (Index.Alloc "string append (^)")
  | [ "ref" ] -> Some (Index.Alloc "ref cell")
  | [ "Array";
      ( "append" | "make" | "create_float" | "init" | "make_matrix" | "copy"
      | "sub" | "concat" | "of_list" | "to_list" | "map" | "mapi" | "map2"
      | "split" | "combine" ) ]
  | [ "List";
      ( "map" | "mapi" | "map2" | "rev" | "rev_append" | "rev_map" | "init"
      | "filter" | "filteri" | "filter_map" | "concat" | "concat_map"
      | "flatten" | "sort" | "stable_sort" | "fast_sort" | "sort_uniq"
      | "merge" | "split" | "combine" | "of_seq" | "cons" ) ]
  | [ "String";
      ( "make" | "init" | "sub" | "concat" | "cat" | "map" | "mapi" | "trim"
      | "escaped" | "uppercase_ascii" | "lowercase_ascii"
      | "capitalize_ascii" | "split_on_char" | "of_bytes" | "to_bytes" ) ]
  | [ "Bytes";
      ( "create" | "make" | "init" | "copy" | "sub" | "extend" | "cat"
      | "concat" | "of_string" | "to_string" | "sub_string" ) ]
  | [ "Buffer"; ("create" | "contents" | "to_bytes" | "sub") ]
  | [ "Printf"; ("sprintf" | "ksprintf") ]
  | [ "Format"; "asprintf" ]
  | [ "Hashtbl"; ("create" | "copy" | "to_seq" | "of_seq") ]
  | [ ("Queue" | "Stack"); "create" ]
  | [ "Option"; ("map" | "some" | "bind" | "join") ]
  | [ "Result"; ("map" | "map_error" | "bind" | "ok" | "error") ] ->
      Some (Index.Alloc (String.concat "." path))
  (* partiality *)
  | [ "List"; ("nth" | "find" | "assoc" | "assq") ]
  | [ "Hashtbl"; "find" ]
  | [ "Stack"; ("pop" | "top") ]
  | [ "Queue"; ("pop" | "take" | "peek") ]
  | [ ("int_of_string" | "float_of_string" | "bool_of_string") ]
  | [ "String"; ("index" | "rindex") ] ->
      Some (Index.Partial (String.concat "." path))
  | _ -> None

(* --- node info ---------------------------------------------------------- *)

type edge = {
  to_id : string;
  e_line : int;
  e_handled : bool;
}

type info = {
  node : Index.node;
  direct : Index.site list;  (* sorted by location *)
  edges : edge list;  (* deduplicated, sorted by (to_id, line) *)
}

type t = {
  infos : (string, info) Hashtbl.t;
  order : string list;  (* sorted node ids *)
  hot_roots : string list;  (* sorted ids *)
  serve_roots : string list;
  reach_hot : (string, string) Hashtbl.t;  (* id -> root display *)
  reach_serve : (string, string) Hashtbl.t;
}

(* --- roots -------------------------------------------------------------- *)

(* (module, value-name prefix): the audited hot entry points whose
   transitive callees must stay allocation-free (r11). *)
let hot_root_specs =
  [
    ("Engine", "ingest");  (* ingest / ingest_batch_quiet *)
    ("Dynamic_alg", "serve");  (* the solver step behind Online.serve *)
    ("Binc", "decode_varints");  (* the block decoder *)
  ]

(* The serve/net request path whose reachable partiality r12 patrols. *)
let serve_root_specs =
  [
    ("Engine", "ingest");
    ("Net", "handle_");  (* handle_req / handle_frame *)
    ("Net", "dispatch_frames");
    ("Tenant", "serve");  (* serve / serve_quiet *)
  ]

let has_prefix s pre =
  let lp = String.length pre in
  String.length s >= lp && String.equal (String.sub s 0 lp) pre

let matches_spec specs (n : Index.node) =
  List.exists
    (fun (m, pre) -> String.equal n.Index.modname m && has_prefix n.Index.name pre)
    specs

(* --- building ----------------------------------------------------------- *)

let build_info index (n : Index.node) =
  let direct = ref n.Index.sites and edges = ref [] in
  List.iter
    (fun (r : Index.reference) ->
      match Index.resolve index ~file:n.Index.file r.Index.r_path with
      | `Nodes ids ->
          List.iter
            (fun to_id ->
              if not (String.equal to_id n.Index.id) then
                edges :=
                  { to_id; e_line = r.Index.r_line; e_handled = r.Index.r_handled }
                  :: !edges)
            ids
      | `Extern path ->
          Option.iter
            (fun s_kind ->
              direct :=
                {
                  Index.s_kind;
                  s_line = r.Index.r_line;
                  s_col = r.Index.r_col;
                  s_handled = r.Index.r_handled;
                }
                :: !direct)
            (intrinsic path))
    n.Index.refs;
  let edges =
    List.sort_uniq
      (fun a b ->
        let c = String.compare a.to_id b.to_id in
        if c <> 0 then c
        else
          let c = Int.compare a.e_line b.e_line in
          if c <> 0 then c else Bool.compare a.e_handled b.e_handled)
      !edges
  in
  let direct =
    List.sort
      (fun (a : Index.site) (b : Index.site) ->
        let c = Int.compare a.Index.s_line b.Index.s_line in
        if c <> 0 then c else Int.compare a.Index.s_col b.Index.s_col)
      !direct
  in
  { node = n; direct; edges }

(* A call runs a function's (or an alias's target's) body; a constant
   binding's body ran once at module initialization. *)
let runs_per_call (i : info) =
  i.node.Index.is_function || i.node.Index.is_alias

let infer ?(extra_hot_roots = []) index =
  let infos = Hashtbl.create 512 in
  let order =
    List.map
      (fun (n : Index.node) ->
        Hashtbl.replace infos n.Index.id (build_info index n);
        n.Index.id)
      (Index.nodes index)
  in
  let roots_of specs extra =
    List.filter
      (fun id ->
        let n = (Hashtbl.find infos id).node in
        matches_spec specs n || List.mem n.Index.display extra)
      order
  in
  let hot_roots = roots_of hot_root_specs extra_hot_roots in
  let serve_roots = roots_of serve_root_specs [] in
  (* DFS reachability recording the first root that reaches each node
     (deterministic: roots and adjacency are sorted).  Constant bindings
     are not entered: a call reads them, it does not re-run their
     initializer.  The serve-path traversal additionally refuses handled
     edges — a handler on the path is exactly the interposition r12 asks
     for; an allocation under a handler still allocates, so the hot-path
     traversal crosses them. *)
  let reach roots ~cross_handled =
    let tbl = Hashtbl.create 256 in
    let rec visit root id =
      if not (Hashtbl.mem tbl id) then
        match Hashtbl.find_opt infos id with
        | Some i when runs_per_call i ->
            Hashtbl.replace tbl id root;
            List.iter
              (fun (ed : edge) ->
                if cross_handled || not ed.e_handled then visit root ed.to_id)
              i.edges
        | _ -> ()
    in
    List.iter
      (fun root_id ->
        visit (Hashtbl.find infos root_id).node.Index.display root_id)
      roots;
    tbl
  in
  {
    infos;
    order;
    hot_roots;
    serve_roots;
    reach_hot = reach hot_roots ~cross_handled:true;
    reach_serve = reach serve_roots ~cross_handled:false;
  }

(* --- queries ------------------------------------------------------------ *)

let info t id = Hashtbl.find_opt t.infos id
let node_ids t = t.order
let hot_reach t id = Hashtbl.find_opt t.reach_hot id
let serve_reach t id = Hashtbl.find_opt t.reach_serve id

(* --- the graph dump ----------------------------------------------------- *)

let to_json t =
  let num i = Ljson.Num (float_of_int i) in
  let reached tbl id =
    match Hashtbl.find_opt tbl id with
    | Some root -> Ljson.Str root
    | None -> Ljson.Null
  in
  let node_json id =
    let i = Hashtbl.find t.infos id in
    let n = i.node in
    Ljson.Obj
      [
        ("id", Ljson.Str n.Index.id);
        ("display", Ljson.Str n.Index.display);
        ("file", Ljson.Str n.Index.file);
        ("line", num n.Index.n_line);
        ("function", Ljson.Bool n.Index.is_function);
        ( "direct",
          Ljson.Arr
            (List.map
               (fun (s : Index.site) ->
                 let kind, what =
                   match s.Index.s_kind with
                   | Index.Alloc what -> ("alloc", what)
                   | Index.Partial what -> ("partial", what)
                 in
                 Ljson.Obj
                   [
                     ("kind", Ljson.Str kind);
                     ("what", Ljson.Str what);
                     ("line", num s.Index.s_line);
                     ("col", num s.Index.s_col);
                     ("handled", Ljson.Bool s.Index.s_handled);
                   ])
               i.direct) );
        ( "calls",
          Ljson.Arr
            (List.map
               (fun (ed : edge) ->
                 Ljson.Obj
                   [
                     ("to", Ljson.Str ed.to_id);
                     ("line", num ed.e_line);
                     ("handled", Ljson.Bool ed.e_handled);
                   ])
               i.edges) );
        ("hot_root", Ljson.Bool (List.mem id t.hot_roots));
        ("serve_root", Ljson.Bool (List.mem id t.serve_roots));
        ("reachable_from_hot", reached t.reach_hot id);
        ("reachable_from_serve", reached t.reach_serve id);
      ]
  in
  let ids l = Ljson.Arr (List.map (fun r -> Ljson.Str r) l) in
  Ljson.Obj
    [
      ("schema", Ljson.Str "rbgp-lint-graph/2");
      ("hot_roots", ids t.hot_roots);
      ("serve_roots", ids t.serve_roots);
      ("nodes", Ljson.Arr (List.map node_json t.order));
    ]
