(* The cross-module value index: the syntactic substrate of the call
   graph (effects.ml) and the index-level rules (r11-hot-alloc,
   r12-transitive-partial, r13-comparator-coverage, r14-unused-export).

   One pass over every parsed implementation collects, per top-level (or
   nested-module) value binding:

     - the *references* its body makes — applied heads and first-class
       uses alike, recorded as raw dotted paths for later resolution;
     - its *direct allocation sites* — closures built inside the body,
       tuples, records, array and list literals (a cons chain counts
       once, like the literal it spells);
     - whether a reference sits under an exception handler ([try]/
       [match ... with exception]), so partiality can be masked by an
       intervening named handler.

   Alongside the nodes the index keeps each file's module aliases
   ([module P = Rbgp_util.Pool], and local [let module M = P in]), the
   values each interface exposes (for r13 and r14), and resolution
   tables from (module, value) names to node ids.

   Resolution is deliberately syntactic and over-approximate: a name
   defined by two modules (the tree has two [Engine]s) resolves to every
   candidate.  First-class dispatch through record fields (the [Online]
   algorithm interface) is invisible here, which is why the hot roots
   name both the engine entry points and the solver step
   [Dynamic_alg.serve] explicitly.

   Everything is deterministic: nodes sort by id, tables are folded into
   sorted lists before anything escapes, and no wall clock is read. *)

type site_kind =
  | Alloc of string  (* what is allocated, for the finding message *)
  | Partial of string  (* which partial stdlib idiom is called *)

type site = {
  s_kind : site_kind;
  s_line : int;
  s_col : int;
  s_handled : bool;  (* under an exception handler *)
}

type reference = {
  r_path : string list;  (* alias-expanded dotted path, Stdlib stripped *)
  r_line : int;
  r_col : int;
  r_handled : bool;
}

type node = {
  id : string;  (* "<file>#[Sub.]<name>[@line]" — unique and sortable *)
  display : string;  (* "Mod.name" or "Mod.Sub.name" *)
  file : string;
  modname : string;  (* top-level module (capitalized basename) *)
  name : string;  (* value name *)
  n_line : int;
  is_function : bool;  (* binding peels at least one fun/function *)
  is_alias : bool;  (* non-function whose body is a bare ident *)
  sites : site list;  (* in source order *)
  refs : reference list;  (* in source order *)
}

type exposed = {
  e_file : string;  (* the .mli path *)
  e_modname : string;
  e_name : string;
  e_line : int;
  e_col : int;
}

type t = {
  nodes : node list;  (* sorted by id *)
  exposed : exposed list;  (* sorted by (file, line) *)
  by_value : (string * string, string list) Hashtbl.t;
      (* (modname, value) -> node ids, sorted *)
  by_file_value : (string * string, string list) Hashtbl.t;
      (* (file, value) -> node ids, sorted *)
}

(* --- identifier utilities --------------------------------------------- *)

let rec flatten acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flatten (s :: acc) l
  | Longident.Lapply _ -> acc

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let module_basename path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* Library wrapper modules (dune's [Rbgp_util], [Rbgp_serve], ...) only
   namespace the per-file modules; drop them so [Rbgp_util.Pool.map] and
   a same-library [Pool.map] resolve identically. *)
let is_wrapper seg =
  String.length seg > 5 && String.equal (String.sub seg 0 5) "Rbgp_"

let rec strip_wrappers = function
  | seg :: (_ :: _ as rest) when is_wrapper seg -> strip_wrappers rest
  | p -> p

(* --- per-file syntactic walk ------------------------------------------ *)

type file_ctx = {
  path : string;
  modname : string;
  aliases : (string, string list) Hashtbl.t;  (* local name -> target path *)
  mutable collected : node list;  (* reverse source order *)
}

let expand_aliases ctx p =
  match p with
  | head :: rest -> (
      match Hashtbl.find_opt ctx.aliases head with
      | Some target -> target @ rest
      | None -> p)
  | [] -> p

let normalize_path_ident ctx lid =
  strip_wrappers (strip_stdlib (expand_aliases ctx (flatten [] lid)))

(* Does [body] use the variable [x] only as the operand of [!], [:=],
   [incr] and [decr], outside every closure?  Then the compiler keeps a
   [let x = ref e in body] ref in a mutable local and allocates no cell
   (Simplif's ref elimination).  A shadowing rebinding of [x] counts as
   a use, which errs towards reporting the allocation. *)
let stays_local x body =
  let ok = ref true and closures = ref 0 in
  let is_x (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident y; _ } -> String.equal x y
    | _ -> false
  in
  let default = Ast_iterator.default_iterator.Ast_iterator.expr in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply
        ( {
            pexp_desc =
              Parsetree.Pexp_ident
                { txt = Longident.Lident ("!" | ":=" | "incr" | "decr"); _ };
            _;
          },
          (Asttypes.Nolabel, r) :: rest )
      when is_x r && !closures = 0 ->
        List.iter (fun (_, a) -> self.Ast_iterator.expr self a) rest
    | _ when is_x e -> ok := false
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_lazy _
      ->
        incr closures;
        default self e;
        decr closures
    | _ -> default self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.Ast_iterator.expr it body;
  !ok

(* Collect the sites and references of one binding body.  [handled] is a
   depth counter: positive inside a [try] body or a [match] scrutinee
   whose cases include [exception] patterns.  Closures count one site
   each (the curried spine collapses), the leading parameters of the
   binding itself are not allocations, and neither is a ref that
   {!stays_local}. *)
let collect_body ctx expr0 =
  let sites = ref [] and refs = ref [] in
  let handled = ref 0 in
  (* module paths of the enclosing local opens ([M.(e)], [let open M in
     e]), innermost first *)
  let opens = ref [] in
  let loc_of (loc : Location.t) =
    let p = loc.Location.loc_start in
    (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
  in
  let add_site kind loc =
    let line, col = loc_of loc in
    sites :=
      { s_kind = kind; s_line = line; s_col = col; s_handled = !handled > 0 }
      :: !sites
  in
  let add_ref lid loc =
    let line, col = loc_of loc in
    let push p =
      refs :=
        { r_path = p; r_line = line; r_col = col; r_handled = !handled > 0 }
        :: !refs
    in
    match normalize_path_ident ctx lid with
    | [] -> ()
    | [ v ] as p ->
        (* under a local open a bare name may be the opened module's:
           record both readings (over-approximate, like resolution) *)
        push p;
        List.iter (fun m -> push (m @ [ v ])) !opens
    | p -> push p
  in
  let rec peel_top self (e : Parsetree.expression) =
    (* the binding's own parameter spine: not allocations *)
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun (_, default, _, body) ->
        Option.iter (expr_of self) default;
        peel_top self body
    | Parsetree.Pexp_function cases -> List.iter (case_of self) cases
    | Parsetree.Pexp_newtype (_, body) -> peel_top self body
    | _ -> expr_of self e
  and case_of self (c : Parsetree.case) =
    Option.iter (expr_of self) c.Parsetree.pc_guard;
    expr_of self c.Parsetree.pc_rhs
  and expr_of self e = self.Ast_iterator.expr self e
  and cons_chain self (e : Parsetree.expression) =
    (* one site for the whole chain: walk elements, follow the tail *)
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_construct
        ( { txt = Longident.Lident "::"; _ },
          Some { pexp_desc = Parsetree.Pexp_tuple [ hd; tl ]; _ } ) ->
        expr_of self hd;
        cons_chain self tl
    | _ -> expr_of self e
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> add_ref txt loc
    | Parsetree.Pexp_apply (fn, args) ->
        (match fn.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { txt; loc } -> add_ref txt loc
        | _ -> expr_of self fn);
        List.iter (fun (_, a) -> expr_of self a) args
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
        add_site (Alloc "closure") e.Parsetree.pexp_loc;
        (* the closure's curried spine is one allocation, not one per
           parameter; its body re-arms normally *)
        peel_top self e
    | Parsetree.Pexp_tuple items ->
        add_site (Alloc "tuple") e.Parsetree.pexp_loc;
        List.iter (expr_of self) items
    | Parsetree.Pexp_record (fields, base) ->
        add_site (Alloc "record") e.Parsetree.pexp_loc;
        List.iter (fun (_, v) -> expr_of self v) fields;
        Option.iter (expr_of self) base
    | Parsetree.Pexp_array items ->
        add_site (Alloc "array literal") e.Parsetree.pexp_loc;
        List.iter (expr_of self) items
    | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) ->
        add_site (Alloc "list cons") e.Parsetree.pexp_loc;
        cons_chain self e
    | Parsetree.Pexp_let (Asttypes.Nonrecursive, vbs, body) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
            | ( Parsetree.Ppat_var { txt = x; _ },
                Parsetree.Pexp_apply
                  ( { pexp_desc = Parsetree.Pexp_ident { txt = fn; _ }; _ },
                    [ (Asttypes.Nolabel, init) ] ) )
              when normalize_path_ident ctx fn = [ "ref" ] && stays_local x body
              ->
                expr_of self init
            | _ -> self.Ast_iterator.value_binding self vb)
          vbs;
        expr_of self body
    | Parsetree.Pexp_letmodule
        ( { txt = Some name; _ },
          { pmod_desc = Parsetree.Pmod_ident { txt; _ }; _ },
          body ) ->
        (* a local alias scopes over [body] only; recording it file-wide
           over-approximates, like a top-level alias *)
        Hashtbl.replace ctx.aliases name
          (strip_wrappers (strip_stdlib (flatten [] txt)));
        expr_of self body
    | Parsetree.Pexp_open
        ( { popen_expr = { pmod_desc = Parsetree.Pmod_ident { txt; _ }; _ }; _ },
          body ) ->
        let outer = !opens in
        opens := normalize_path_ident ctx txt :: outer;
        expr_of self body;
        opens := outer
    | Parsetree.Pexp_try (body, cases) ->
        incr handled;
        expr_of self body;
        decr handled;
        List.iter (case_of self) cases
    | Parsetree.Pexp_match (scrut, cases) ->
        let has_exn_case =
          List.exists
            (fun (c : Parsetree.case) ->
              match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
              | Parsetree.Ppat_exception _ -> true
              | _ -> false)
            cases
        in
        if has_exn_case then begin
          incr handled;
          expr_of self scrut;
          decr handled
        end
        else expr_of self scrut;
        List.iter (case_of self) cases
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  let is_function, is_alias =
    match expr0.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _
    | Parsetree.Pexp_newtype _ ->
        (true, false)
    | Parsetree.Pexp_ident _ -> (false, true)
    | _ -> (false, false)
  in
  peel_top it expr0;
  (List.rev !sites, List.rev !refs, is_function, is_alias)

let binding_name (vb : Parsetree.value_binding) =
  let rec of_pat (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> Some txt
    | Parsetree.Ppat_constraint (p, _) -> of_pat p
    | _ -> None
  in
  of_pat vb.Parsetree.pvb_pat

let walk_structure ctx str =
  let add_node ~modpath (vb : Parsetree.value_binding) =
    let name =
      match binding_name vb with
      | Some name -> name
      | None ->
          (* pattern bindings define no callable, but their bodies still
             reference values — [let () = Alcotest.run ...] is how test
             files exercise comparators, and r13's coverage evidence
             must see those references.  A synthetic per-line name keeps
             the node addressable and un-referenceable. *)
          Printf.sprintf "_anon:%d"
            vb.Parsetree.pvb_loc.Location.loc_start.Lexing.pos_lnum
    in
    let sites, refs, is_function, is_alias =
      collect_body ctx vb.Parsetree.pvb_expr
    in
    let qual = String.concat "." (modpath @ [ name ]) in
    let line = vb.Parsetree.pvb_loc.Location.loc_start.Lexing.pos_lnum in
    ctx.collected <-
      {
        id = ctx.path ^ "#" ^ qual;
        display = ctx.modname ^ "." ^ qual;
        file = ctx.path;
        modname = ctx.modname;
        name;
        n_line = line;
        is_function;
        is_alias;
        sites;
        refs;
      }
      :: ctx.collected
  in
  let rec structure ~modpath str = List.iter (item ~modpath) str
  and item ~modpath (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) -> List.iter (add_node ~modpath) vbs
    | Parsetree.Pstr_module mb -> module_binding ~modpath mb
    | Parsetree.Pstr_recmodule mbs ->
        List.iter (module_binding ~modpath) mbs
    | Parsetree.Pstr_include incl -> module_expr ~modpath incl.Parsetree.pincl_mod
    (* opens are not resolved (no scope model for foreign module
       contents): unqualified names fall back to the intrinsic table *)
    | _ -> ()
  and module_binding ~modpath (mb : Parsetree.module_binding) =
    match mb.Parsetree.pmb_name.Location.txt with
    | None -> ()
    | Some name -> (
        match mb.Parsetree.pmb_expr.Parsetree.pmod_desc with
        | Parsetree.Pmod_ident { txt; _ } ->
            Hashtbl.replace ctx.aliases name
              (strip_wrappers (strip_stdlib (flatten [] txt)))
        | _ -> module_expr ~modpath:(modpath @ [ name ]) mb.Parsetree.pmb_expr)
  and module_expr ~modpath (me : Parsetree.module_expr) =
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure str -> structure ~modpath str
    | Parsetree.Pmod_functor (_, body) -> module_expr ~modpath body
    | Parsetree.Pmod_constraint (me, _) -> module_expr ~modpath me
    | _ -> ()
  in
  structure ~modpath:[] str

let exposed_of_signature ~path ~modname sg =
  List.filter_map
    (fun (si : Parsetree.signature_item) ->
      match si.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          let p = vd.Parsetree.pval_loc.Location.loc_start in
          Some
            {
              e_file = path;
              e_modname = modname;
              e_name = vd.Parsetree.pval_name.Location.txt;
              e_line = p.Lexing.pos_lnum;
              e_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
            }
      | _ -> None)
    sg

(* --- building --------------------------------------------------------- *)

let of_sources sources =
  let nodes = ref [] and exposed = ref [] in
  List.iter
    (fun (path, source) ->
      let path = Finding.normalize_path path in
      let modname = module_basename path in
      let lexbuf = Lexing.from_string source in
      Location.init lexbuf path;
      if Filename.check_suffix path ".mli" then
        match Parse.interface lexbuf with
        | sg -> exposed := exposed_of_signature ~path ~modname sg @ !exposed
        | exception _ -> ()  (* parse errors are the engine's findings *)
      else
        match Parse.implementation lexbuf with
        | str ->
            let ctx =
              { path; modname; aliases = Hashtbl.create 8; collected = [] }
            in
            walk_structure ctx str;
            (* a name bound twice in one file: the last binding, the one
               the rest of the tree sees, keeps the plain id and each
               earlier one gets an [@line] suffix *)
            let seen = Hashtbl.create 64 in
            List.iter
              (fun n ->
                let n =
                  if Hashtbl.mem seen n.id then
                    { n with id = Printf.sprintf "%s@%d" n.id n.n_line }
                  else n
                in
                Hashtbl.replace seen n.id ();
                nodes := n :: !nodes)
              ctx.collected
        | exception _ -> ())
    sources;
  let nodes =
    List.sort (fun a b -> String.compare a.id b.id) !nodes
  in
  let exposed =
    List.sort
      (fun a b ->
        let c = String.compare a.e_file b.e_file in
        if c <> 0 then c else Int.compare a.e_line b.e_line)
      !exposed
  in
  let by_value = Hashtbl.create 256
  and by_file_value = Hashtbl.create 256 in
  (* nodes are sorted, so appended id lists stay sorted *)
  List.iter
    (fun n ->
      let push tbl key =
        Hashtbl.replace tbl key
          ((Option.value ~default:[] (Hashtbl.find_opt tbl key)) @ [ n.id ])
      in
      push by_value (n.modname, n.name);
      push by_file_value (n.file, n.name))
    nodes;
  { nodes; exposed; by_value; by_file_value }

let nodes t = t.nodes
let exposed t = t.exposed

(* --- reference resolution --------------------------------------------- *)

(* Resolve an alias-expanded path from [file] to node ids, or report it
   external.  [Lident v] prefers same-file definitions; [M.v] matches
   every module named [M] (over-approximating on the tree's duplicate
   module names, so every candidate is reached). *)
let resolve t ~file path =
  match path with
  | [] -> `Extern []
  | [ v ] -> (
      match Hashtbl.find_opt t.by_file_value (Finding.normalize_path file, v) with
      | Some ids -> `Nodes ids
      | None -> `Extern path)
  | _ -> (
      let v = List.nth path (List.length path - 1) in
      let m = List.nth path (List.length path - 2) in
      match Hashtbl.find_opt t.by_value (m, v) with
      | Some ids -> `Nodes ids
      | None -> `Extern path)

(* --- test-suite references (r13) -------------------------------------- *)

let compare_opt a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some a, Some b -> String.compare a b

(* Every (module, value) pair a file set references, alias-expanded:
   [module A = Rbgp_ring.Assignment ... A.compare] yields
   (Some "Assignment", "compare"); bare idents yield (None, name). *)
let references t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun n ->
      List.iter
        (fun r ->
          let key =
            match r.r_path with
            | [ v ] -> (None, v)
            | p ->
                let v = List.nth p (List.length p - 1) in
                let m = List.nth p (List.length p - 2) in
                (Some m, v)
          in
          Hashtbl.replace tbl key ())
        n.refs)
    t.nodes;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort (fun (m1, v1) (m2, v2) ->
         let c = compare_opt m1 m2 in
         if c <> 0 then c else String.compare v1 v2)
