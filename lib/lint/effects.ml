(* Interprocedural effect inference over the cross-module index: a
   fixpoint computing, per value definition, a four-bit lattice —

     allocates   the body (or anything it reaches) heap-allocates per
                 call: closures, tuples, records, array/list literals,
                 cons cells, or allocating stdlib ([@], [^],
                 [Array.append], [List.map], [Printf.sprintf], ...);
     partial     it can raise from an *unnamed* partiality idiom
                 ([List.hd], [Option.get], [Hashtbl.find],
                 [int_of_string], ...) with no intervening handler —
                 deliberate [failwith]/[invalid_arg] with a written
                 invariant message do not count;
     nondet      it reads a clock, the global RNG or [Domain.self];
     blocking    it performs a blocking syscall or channel operation.

   Effects are monotone under the call graph, so a worklist-free
   round-robin over the sorted node list converges in at most
   4 * |nodes| rounds (in practice a handful).  Calls through an edge
   sitting under an exception handler propagate everything *except*
   partiality — the handler is the "intervening named handler" that
   r12-transitive-partial asks for.  Constant bindings (top-level
   non-function, non-alias values) export nothing to their referencers:
   their body runs once at module initialization, not per call.

   Unresolved references fall back to the intrinsic table below;
   unknown externals contribute no effects (optimistic — this is a
   linter's ratchet, not a soundness proof, and the pessimistic choice
   would drown every finding in noise).

   Two root sets anchor the rules:
     - hot roots (r11): the bench-audited allocation-free entry points —
       [Engine.ingest*], the solver step [Dynamic_alg.serve] and the
       [Binc] block decoders;
     - serve roots (r12): the request path — [Engine.ingest*], the net
       tier's frame handlers and the tenant router's serve entries.

   Determinism: sorted iteration everywhere, no wall clock, and the
   graph dump is a pure function of the sources (pinned by a
   byte-identity test). *)

type eff = {
  alloc : bool;
  partial : bool;
  nondet : bool;
  blocking : bool;
}

let eff_bot = { alloc = false; partial = false; nondet = false; blocking = false }

let eff_union a b =
  {
    alloc = a.alloc || b.alloc;
    partial = a.partial || b.partial;
    nondet = a.nondet || b.nondet;
    blocking = a.blocking || b.blocking;
  }

let eff_equal a b =
  Bool.equal a.alloc b.alloc
  && Bool.equal a.partial b.partial
  && Bool.equal a.nondet b.nondet
  && Bool.equal a.blocking b.blocking

(* --- the intrinsic table ----------------------------------------------- *)

let e_alloc = { eff_bot with alloc = true }
let e_partial = { eff_bot with partial = true }
let e_nondet = { eff_bot with nondet = true }
let e_blocking = { eff_bot with blocking = true }

(* Effects of stdlib (and Unix) values the tree leans on.  The label is
   the human name used in finding messages. *)
let intrinsic path : (eff * string) option =
  match path with
  (* allocation *)
  | [ "@" ] | [ "List"; "append" ] -> Some (e_alloc, "list append (@)")
  | [ "^" ] -> Some (e_alloc, "string append (^)")
  | [ "ref" ] -> Some (e_alloc, "ref cell")
  | [ "Array";
      ( "append" | "make" | "create_float" | "init" | "make_matrix" | "copy"
      | "sub" | "concat" | "of_list" | "to_list" | "map" | "mapi" | "map2"
      | "split" | "combine" ) ] ->
      Some (e_alloc, "Array." ^ List.nth path 1)
  | [ "List";
      ( "map" | "mapi" | "map2" | "rev" | "rev_append" | "rev_map" | "init"
      | "filter" | "filteri" | "filter_map" | "concat" | "concat_map"
      | "flatten" | "sort" | "stable_sort" | "fast_sort" | "sort_uniq"
      | "merge" | "split" | "combine" | "of_seq" | "cons" ) ] ->
      Some (e_alloc, "List." ^ List.nth path 1)
  | [ "String";
      ( "make" | "init" | "sub" | "concat" | "cat" | "map" | "mapi" | "trim"
      | "escaped" | "uppercase_ascii" | "lowercase_ascii"
      | "capitalize_ascii" | "split_on_char" | "of_bytes" | "to_bytes" ) ] ->
      Some (e_alloc, "String." ^ List.nth path 1)
  | [ "Bytes";
      ( "create" | "make" | "init" | "copy" | "sub" | "extend" | "cat"
      | "concat" | "of_string" | "to_string" | "sub_string" ) ] ->
      Some (e_alloc, "Bytes." ^ List.nth path 1)
  | [ "Buffer"; ("create" | "contents" | "to_bytes" | "sub") ] ->
      Some (e_alloc, "Buffer." ^ List.nth path 1)
  | [ "Printf"; ("sprintf" | "ksprintf") ] ->
      Some (e_alloc, "Printf." ^ List.nth path 1)
  | [ "Format"; "asprintf" ] -> Some (e_alloc, "Format.asprintf")
  | [ "Hashtbl"; ("create" | "copy" | "to_seq" | "of_seq") ] ->
      Some (e_alloc, "Hashtbl." ^ List.nth path 1)
  | [ "Queue"; "create" ] | [ "Stack"; "create" ] ->
      Some (e_alloc, List.nth path 0 ^ ".create")
  | [ "Option"; ("map" | "some" | "bind" | "join") ] ->
      Some (e_alloc, "Option." ^ List.nth path 1)
  | [ "Result"; ("map" | "map_error" | "bind" | "ok" | "error") ] ->
      Some (e_alloc, "Result." ^ List.nth path 1)
  (* partiality — the *unnamed* idioms; [failwith]/[invalid_arg] carry a
     written invariant and are not counted *)
  | [ "List"; (("hd" | "tl" | "nth" | "find" | "assoc" | "assq") as f) ] ->
      Some (e_partial, "List." ^ f)
  | [ "Option"; "get" ] -> Some (e_partial, "Option.get")
  | [ "Hashtbl"; "find" ] -> Some (e_partial, "Hashtbl.find")
  | [ "Stack"; (("pop" | "top") as f) ] -> Some (e_partial, "Stack." ^ f)
  | [ "Queue"; (("pop" | "take" | "peek") as f) ] ->
      Some (e_partial, "Queue." ^ f)
  | [ ("int_of_string" | "float_of_string" | "bool_of_string") as f ] ->
      Some (e_partial, f)
  | [ "String"; (("index" | "rindex") as f) ] ->
      Some (e_partial, "String." ^ f)
  (* nondeterminism *)
  | [ "Unix"; (("gettimeofday" | "time") as f) ] ->
      Some (e_nondet, "Unix." ^ f)
  | [ "Sys"; "time" ] -> Some (e_nondet, "Sys.time")
  | [ "Clock"; "now_ns" ] | [ "Rbgp_util"; "Clock"; "now_ns" ] ->
      Some (e_nondet, "Clock.now_ns")
  | [ "Domain"; "self" ] -> Some (e_nondet, "Domain.self")
  | [ "Random";
      (("self_init" | "int" | "full_int" | "float" | "bool" | "bits") as f) ]
    ->
      Some (e_nondet, "Random." ^ f)
  (* blocking syscalls / channel IO *)
  | [ "Unix";
      (( "read" | "write" | "single_write" | "select" | "accept" | "connect"
       | "recv" | "send" | "recvfrom" | "sendto" | "sleep" | "sleepf"
       | "openfile" | "fsync" | "waitpid" ) as f) ] ->
      Some (e_blocking, "Unix." ^ f)
  | [ (( "input_byte" | "input_char" | "input_line" | "input_value" | "input"
       | "really_input" | "really_input_string" | "output_string"
       | "output_bytes" | "output_byte" | "output_char" | "output_value"
       | "output" | "flush" | "print_string" | "print_endline"
       | "prerr_endline" | "read_line" ) as f) ] ->
      Some (e_blocking, f)
  | [ "In_channel"; f ] -> Some (e_blocking, "In_channel." ^ f)
  | [ "Out_channel"; f ] -> Some (e_blocking, "Out_channel." ^ f)
  | [ "Printf"; (("printf" | "eprintf" | "fprintf") as f) ] ->
      Some (e_blocking, "Printf." ^ f)
  | _ -> None

(* --- node info ---------------------------------------------------------- *)

(* A direct effect site, after intrinsic resolution: syntactic allocation
   sites plus intrinsic calls, each with its human label. *)
type direct = {
  d_eff : eff;
  d_what : string;
  d_line : int;
  d_col : int;
  d_handled : bool;
}

type edge = {
  to_id : string;
  e_line : int;
  e_handled : bool;
}

type info = {
  node : Index.node;
  direct : direct list;  (* source order *)
  edges : edge list;  (* deduplicated, sorted by (to_id, line) *)
  mutable eff : eff;
}

type t = {
  index : Index.t;
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

(* --- inference ---------------------------------------------------------- *)

let build_info index (n : Index.node) =
  let direct = ref [] and edges = ref [] in
  List.iter
    (fun (s : Index.site) ->
      let d_eff, d_what =
        match s.Index.s_kind with
        | Index.Alloc what -> (e_alloc, what)
        | Index.Partial what -> (e_partial, what)
      in
      direct :=
        {
          d_eff;
          d_what;
          d_line = s.Index.s_line;
          d_col = s.Index.s_col;
          d_handled = s.Index.s_handled;
        }
        :: !direct)
    n.Index.sites;
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
      | `Extern path -> (
          match intrinsic path with
          | Some (d_eff, d_what) ->
              direct :=
                {
                  d_eff;
                  d_what;
                  d_line = r.Index.r_line;
                  d_col = r.Index.r_col;
                  d_handled = r.Index.r_handled;
                }
                :: !direct
          | None -> ()))
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
      (fun a b ->
        let c = Int.compare a.d_line b.d_line in
        if c <> 0 then c else Int.compare a.d_col b.d_col)
      !direct
  in
  { node = n; direct; edges; eff = eff_bot }

(* A binding's exported effect: what a *call* to it performs.  Constant
   bindings run once at module init, so they export nothing; aliases
   forward their target's effects (captured via their edge). *)
let exports (i : info) =
  i.node.Index.is_function || i.node.Index.is_alias

let direct_eff (i : info) =
  List.fold_left
    (fun acc d ->
      (* a handled partial site cannot escape the enclosing handler *)
      let e =
        if d.d_handled then { d.d_eff with partial = false } else d.d_eff
      in
      eff_union acc e)
    eff_bot i.direct

let infer ?(extra_hot_roots = []) index =
  let infos = Hashtbl.create 512 in
  let order =
    List.map
      (fun (n : Index.node) ->
        Hashtbl.replace infos n.Index.id (build_info index n);
        n.Index.id)
      (Index.nodes index)
  in
  (* fixpoint: effects are monotone over a finite lattice *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        let i = Hashtbl.find infos id in
        let e =
          List.fold_left
            (fun acc (ed : edge) ->
              match Hashtbl.find_opt infos ed.to_id with
              | Some callee when exports callee ->
                  let ce =
                    if ed.e_handled then { callee.eff with partial = false }
                    else callee.eff
                  in
                  eff_union acc ce
              | _ -> acc)
            (direct_eff i) i.edges
        in
        if not (eff_equal e i.eff) then begin
          i.eff <- e;
          changed := true
        end)
      order
  done;
  let roots_of specs extra =
    List.filter
      (fun id ->
        let i = Hashtbl.find infos id in
        let n = i.node in
        matches_spec specs n || List.mem n.Index.display extra)
      order
  in
  let hot_roots = roots_of hot_root_specs extra_hot_roots in
  let serve_roots =
    List.filter
      (fun id ->
        let n = (Hashtbl.find infos id).node in
        matches_spec serve_root_specs n)
      order
  in
  (* BFS reachability recording the first root that reaches each node
     (deterministic: roots and adjacency are sorted).  Constant bindings
     are not entered: a call reads them, it does not re-run their
     initializer, so their sites and callees execute at module init and
     never per hot call.  The serve-path traversal additionally refuses
     handled edges — a handler on the path is exactly the interposition
     r12 asks for. *)
  let reach roots ~cross_handled =
    let tbl = Hashtbl.create 256 in
    let rec visit root id =
      if not (Hashtbl.mem tbl id) then
        match Hashtbl.find_opt infos id with
        | None -> ()
        | Some i when not (exports i) -> ()
        | Some i ->
            Hashtbl.replace tbl id root;
            List.iter
              (fun (ed : edge) ->
                if cross_handled || not ed.e_handled then visit root ed.to_id)
              i.edges
    in
    List.iter
      (fun root_id ->
        let display = (Hashtbl.find infos root_id).node.Index.display in
        visit display root_id)
      roots;
    tbl
  in
  {
    index;
    infos;
    order;
    hot_roots;
    serve_roots;
    reach_hot = reach hot_roots ~cross_handled:true;
    reach_serve = reach serve_roots ~cross_handled:false;
  }

(* --- queries ------------------------------------------------------------ *)

let effect_of t id =
  match Hashtbl.find_opt t.infos id with
  | Some i -> i.eff
  | None -> eff_bot

let info t id = Hashtbl.find_opt t.infos id
let node_ids t = t.order
let hot_roots t = t.hot_roots
let serve_roots t = t.serve_roots
let hot_reach t id = Hashtbl.find_opt t.reach_hot id
let serve_reach t id = Hashtbl.find_opt t.reach_serve id

let direct_sites t id =
  match Hashtbl.find_opt t.infos id with Some i -> i.direct | None -> []

(* --- the graph dump ----------------------------------------------------- *)

let eff_json e =
  Ljson.Obj
    [
      ("allocates", Ljson.Bool e.alloc);
      ("partial", Ljson.Bool e.partial);
      ("nondet", Ljson.Bool e.nondet);
      ("blocking", Ljson.Bool e.blocking);
    ]

let to_json t =
  let node_json id =
    let i = Hashtbl.find t.infos id in
    let n = i.node in
    Ljson.Obj
      [
        ("id", Ljson.Str n.Index.id);
        ("display", Ljson.Str n.Index.display);
        ("file", Ljson.Str n.Index.file);
        ("line", Ljson.Num (float_of_int n.Index.n_line));
        ("function", Ljson.Bool n.Index.is_function);
        ("effects", eff_json i.eff);
        ( "direct",
          Ljson.Arr
            (List.map
               (fun d ->
                 Ljson.Obj
                   [
                     ("what", Ljson.Str d.d_what);
                     ("effects", eff_json d.d_eff);
                     ("line", Ljson.Num (float_of_int d.d_line));
                     ("col", Ljson.Num (float_of_int d.d_col));
                     ("handled", Ljson.Bool d.d_handled);
                   ])
               i.direct) );
        ( "calls",
          Ljson.Arr
            (List.map
               (fun (ed : edge) ->
                 Ljson.Obj
                   [
                     ("to", Ljson.Str ed.to_id);
                     ("line", Ljson.Num (float_of_int ed.e_line));
                     ("handled", Ljson.Bool ed.e_handled);
                   ])
               i.edges) );
        ("hot_root", Ljson.Bool (List.mem id t.hot_roots));
        ("serve_root", Ljson.Bool (List.mem id t.serve_roots));
        ( "reachable_from_hot",
          match Hashtbl.find_opt t.reach_hot id with
          | Some root -> Ljson.Str root
          | None -> Ljson.Null );
        ( "reachable_from_serve",
          match Hashtbl.find_opt t.reach_serve id with
          | Some root -> Ljson.Str root
          | None -> Ljson.Null );
      ]
  in
  Ljson.Obj
    [
      ("schema", Ljson.Str "rbgp-lint-graph/1");
      ("hot_roots", Ljson.Arr (List.map (fun r -> Ljson.Str r) t.hot_roots));
      ( "serve_roots",
        Ljson.Arr (List.map (fun r -> Ljson.Str r) t.serve_roots) );
      ("nodes", Ljson.Arr (List.map node_json t.order));
    ]
