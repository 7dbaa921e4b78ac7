(* The repo-specific rule set, implemented over the compiler's Parsetree.
   Each rule protects an invariant no compiler checks; rules.mli and
   [descriptions] below list them, and DESIGN.md §9 gives the rationale.

   Rules are syntactic (no typing pass), which keeps the linter fast and
   dependency-free; the cost is a small class of heuristic calls, all
   routed through the allowlist with written justifications.  Each site
   gets one rule id: where two rules would see the same call, the one
   that owns it everywhere reports it. *)

type scope = { area : [ `Lib | `Bin | `Bench | `Other ]; sublib : string option }

let hot_sublibs = [ "mts"; "ring"; "serve"; "util" ]

let scope_of_path path =
  let parts =
    List.filter
      (fun s -> not (String.equal s ""))
      (String.split_on_char '/' (Finding.normalize_path path))
  in
  let rec find = function
    | "lib" :: rest ->
        let sublib = match rest with sub :: _ :: _ -> Some sub | _ -> None in
        { area = `Lib; sublib }
    | "bin" :: _ -> { area = `Bin; sublib = None }
    | "bench" :: _ -> { area = `Bench; sublib = None }
    | _ :: rest -> find rest
    | [] -> { area = `Other; sublib = None }
  in
  find parts

let is_hot scope =
  match (scope.area, scope.sublib) with
  | `Lib, Some sub -> List.mem sub hot_sublibs
  | _ -> false

let is_lib scope = match scope.area with `Lib -> true | _ -> false

(* --- identifier classification --------------------------------------- *)

(* Longident.flatten raises on functor applications; this total version
   just yields the path segments (empty for Lapply, which never names a
   value we patrol). *)
let rec flatten acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flatten (s :: acc) l
  | Longident.Lapply _ -> acc

let ident_path lid =
  match flatten [] lid with "Stdlib" :: rest -> rest | p -> p

let poly_op = function
  | "=" | "<>" | "<" | ">" | "<=" | ">=" | "min" | "max" -> true
  | _ -> false

let nondet_message = function
  | [ "Random"; "self_init" ] ->
      Some
        "Random.self_init seeds from the environment; thread the seed \
         explicitly (Rbgp_util.Rng) or resume identity breaks"
  | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      Some
        "wall-clock read in lib/; algorithm state must be a function of \
         (seed, instance, requests) for checkpoint/resume to be exact"
  | [ "Sys"; "time" ] ->
      Some
        "Sys.time (CPU clock) in lib/; timing belongs in bin/ or bench/, \
         not in code whose state a checkpoint restores"
  | [ "Clock"; "now_ns" ] | [ "Rbgp_util"; "Clock"; "now_ns" ] ->
      Some
        "monotonic clock read in lib/; readings may time, schedule or \
         degrade serving but must not become algorithm state — justify \
         the site"
  | _ -> None

(* R7: the Domain stdlib module and the pool API are the only ways code in
   this tree goes parallel.  Every lib/ module that touches either must be
   on the Domain-safety allowlist with a written audit: what shared state
   the parallel region can reach, and why results stay deterministic. *)
let domain_safety_message p =
  let rec member_of m = function
    | x :: _ :: _ when String.equal x m -> true
    | _ :: rest -> member_of m rest
    | [] -> false
  in
  if member_of "Domain" p then
    Some
      "direct Domain API use in lib/; parallelism belongs behind the \
       audited pool layer — record the safety audit in the lint allowlist"
  else if member_of "Pool" p then
    Some
      "pool job submission in lib/; parallel call sites must be on the \
       Domain-safety allowlist with a written audit of the shared state \
       their tasks touch"
  else None

let partial_message = function
  | [ "List"; "hd" ] | [ "List"; "tl" ] ->
      Some "partial on []; match the list shape explicitly"
  | [ "Option"; "get" ] ->
      Some "partial on None; match and fail with a named invariant"
  | [ "Array"; "unsafe_get" ] | [ "Array"; "unsafe_set" ]
  | [ "Bytes"; "unsafe_get" ] | [ "Bytes"; "unsafe_set" ]
  | [ "String"; "unsafe_get" ] ->
      Some "unchecked indexing; prove the bound and justify via allowlist"
  | _ -> None

(* --- expression rules (R1, R2, R3, R5) ------------------------------- *)

(* Is this expression a structural literal — something whose polymorphic
   comparison is certainly a deep caml_compare walk? *)
let structural_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_tuple _ | Parsetree.Pexp_array _ | Parsetree.Pexp_record _
    ->
      true
  | Parsetree.Pexp_construct (_, Some _) -> true
  | _ -> false

let expression_findings ~path ~scope (str : Parsetree.structure) =
  let acc = ref [] in
  let add ~loc ~rule message =
    acc := Finding.of_location ~rule ~file:path loc message :: !acc
  in
  let check_ident ~applied ~loc lid =
    let p = ident_path lid in
    (match p with
    | [ "compare" ] | [ "Pervasives"; "compare" ] ->
        add ~loc ~rule:"r1-poly-compare"
          "polymorphic compare; use Int.compare / Float.compare / an \
           explicit comparator"
    | [ "Hashtbl"; "hash" ] ->
        add ~loc ~rule:"r1-poly-compare"
          "polymorphic Hashtbl.hash walks the whole value; hash an \
           explicit canonical key instead"
    | [ op ] when poly_op op && (not applied) && is_hot scope ->
        add ~loc ~rule:"r1-poly-compare"
          (Printf.sprintf
             "first-class polymorphic (%s) in a hot-path library; pass \
              Int.%s / Float.%s / an explicit comparator"
             op
             (match op with "min" | "max" -> op | _ -> "compare")
             (match op with "min" | "max" -> op | _ -> "compare"))
    | _ -> ());
    (if is_lib scope then
       match nondet_message p with
       | Some msg -> add ~loc ~rule:"r2-nondeterminism" msg
       | None -> ());
    (if is_lib scope then
       match domain_safety_message p with
       | Some msg -> add ~loc ~rule:"r7-domain-safety" msg
       | None -> ());
    match partial_message p with
    | Some msg -> add ~loc ~rule:"r3-partial" msg
    | None -> ()
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> check_ident ~applied:false ~loc txt
    | Parsetree.Pexp_apply (fn, args) ->
        (match fn.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { txt; loc } ->
            check_ident ~applied:true ~loc txt;
            (match ident_path txt with
            | [ ("=" | "<>") ]
              when is_hot scope
                   && List.exists (fun (_, a) -> structural_literal a) args ->
                add ~loc ~rule:"r1-poly-compare"
                  "structural (=) in a hot-path library; compare fields \
                   with monomorphic equality"
            | _ -> ())
        | _ -> self.Ast_iterator.expr self fn);
        List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args
    | Parsetree.Pexp_try (body, cases) ->
        self.Ast_iterator.expr self body;
        List.iter
          (fun (c : Parsetree.case) ->
            (match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_any ->
                add ~loc:c.Parsetree.pc_lhs.Parsetree.ppat_loc
                  ~rule:"r5-catchall-exn"
                  "catch-all exception handler swallows everything \
                   (including Assert_failure and Stack_overflow); bind \
                   the exception or match specific constructors"
            | _ -> ());
            Option.iter (self.Ast_iterator.expr self) c.Parsetree.pc_guard;
            self.Ast_iterator.expr self c.Parsetree.pc_rhs)
          cases
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let case (self : Ast_iterator.iterator) (c : Parsetree.case) =
    (match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
    | Parsetree.Ppat_exception { ppat_desc = Parsetree.Ppat_any; ppat_loc; _ }
      ->
        add ~loc:ppat_loc ~rule:"r5-catchall-exn"
          "catch-all [exception _] match case swallows everything; bind \
           the exception or match specific constructors"
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.case self c
  in
  let it = { Ast_iterator.default_iterator with expr; case } in
  it.Ast_iterator.structure it str;
  !acc

(* --- R4: top-level mutable state ------------------------------------- *)

let mutable_alloc_message = function
  | [ "ref" ] -> Some "top-level ref"
  | [ "Hashtbl"; "create" ] -> Some "top-level Hashtbl"
  | [ "Array"; "make" ]
  | [ "Array"; "init" ]
  | [ "Array"; "make_matrix" ]
  | [ "Array"; "create_float" ] ->
      Some "top-level mutable array"
  | [ "Bytes"; "create" ] | [ "Bytes"; "make" ] -> Some "top-level bytes"
  | [ "Buffer"; "create" ] -> Some "top-level buffer"
  | [ "Queue"; "create" ] -> Some "top-level queue"
  | [ "Stack"; "create" ] -> Some "top-level stack"
  | [ "Atomic"; "make" ] -> Some "top-level atomic"
  | _ -> None

(* Walk a top-level binding's expression, stopping at function boundaries:
   state allocated per call is private to the caller, state allocated at
   module initialization is shared by every domain the pool spawns. *)
let toplevel_mutable_findings ~path (str : Parsetree.structure) =
  let acc = ref [] in
  let add ~loc what =
    acc :=
      Finding.of_location ~rule:"r4-global-mutable" ~file:path loc
        (Printf.sprintf
           "%s is shared across pool worker domains; confine it, guard it, \
            and record the thread-safety argument in the lint allowlist"
           what)
      :: !acc
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> ()
    | Parsetree.Pexp_apply
        ({ pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, args) ->
        (match mutable_alloc_message (ident_path txt) with
        | Some what -> add ~loc what
        | None -> ());
        List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  let rec structure str = List.iter item str
  and item (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, bindings) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            it.Ast_iterator.expr it vb.Parsetree.pvb_expr)
          bindings
    | Parsetree.Pstr_module mb -> module_expr mb.Parsetree.pmb_expr
    | Parsetree.Pstr_recmodule mbs ->
        List.iter (fun mb -> module_expr mb.Parsetree.pmb_expr) mbs
    | Parsetree.Pstr_include incl ->
        module_expr incl.Parsetree.pincl_mod
    | _ -> ()
  and module_expr (me : Parsetree.module_expr) =
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure str -> structure str
    | Parsetree.Pmod_functor (_, me)
    | Parsetree.Pmod_constraint (me, _) ->
        module_expr me
    | _ -> ()
  in
  structure str;
  !acc

let has_suffix p suf =
  let lp = String.length p and ls = String.length suf in
  lp >= ls && String.equal (String.sub p (lp - ls) ls) suf

let in_serve p =
  match scope_of_path p with
  | { area = `Lib; sublib = Some "serve" } -> true
  | _ -> false

(* --- R9: durability hygiene ------------------------------------------- *)

(* The audited durable-write modules: every byte that must survive a
   crash (checkpoints, trace artifacts) is produced here, and the only
   sanctioned way to publish it is Durable.atomic_write (tmp + fsync +
   rename + parent-dir fsync).  A bare open_out to a persistent path can
   be torn by a crash mid-write — exactly the state recovery has to fall
   back past — so every remaining channel-writer site carries an
   allowlist entry saying why a torn file is acceptable there.

   The second half patrols the callers of the durable layer: a handler
   that binds every exception around code that calls into Durable
   swallows a write that really failed (a full disk, a vanished
   directory), so the caller carries on as if the state had reached
   disk.  Handlers that name their exceptions or visibly re-raise are
   fine. *)
let durable_file_suffixes =
  [ "lib/workloads/trace_codec.ml"; "lib/workloads/trace_io.ml";
    "lib/util/durable.ml" ]

let is_durable_audited path =
  let p = Finding.normalize_path path in
  in_serve p || List.exists (has_suffix p) durable_file_suffixes

let durability_findings ~path ~scope (str : Parsetree.structure) =
  let audited = is_durable_audited path in
  let acc = ref [] in
  let add ~loc message =
    acc :=
      Finding.of_location ~rule:"r9-durability" ~file:path loc message
      :: !acc
  in
  (* does this subtree call into the durable layer? *)
  let mentions_durable e0 =
    let rec member_of m = function
      | x :: _ :: _ when String.equal x m -> true
      | _ :: rest -> member_of m rest
      | [] -> false
    in
    let hit lid = member_of "Durable" (flatten [] lid) in
    let found = ref false in
    let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
      (match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> if hit txt then found := true
      | Parsetree.Pexp_construct ({ txt; _ }, _) ->
          if hit txt then found := true
      | _ -> ());
      if not !found then
        Ast_iterator.default_iterator.Ast_iterator.expr self e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.Ast_iterator.expr it e0;
    !found
  in
  (* a handler that re-raises (raise / reraise / raise_with_backtrace
     anywhere in its body) is propagating, not swallowing *)
  let reraises e0 =
    let found = ref false in
    let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
      (match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> (
          match ident_path txt with
          | [ "raise" ] | [ "reraise" ] | [ "raise_notrace" ]
          | [ "Printexc"; "raise_with_backtrace" ] ->
              found := true
          | _ -> ())
      | _ -> ());
      if not !found then
        Ast_iterator.default_iterator.Ast_iterator.expr self e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.Ast_iterator.expr it e0;
    !found
  in
  (* [e] or [_ as e]; a bare [_] is r5's finding everywhere *)
  let catch_all (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var _ -> true
    | Parsetree.Ppat_alias ({ ppat_desc = Parsetree.Ppat_any; _ }, _) -> true
    | _ -> false
  in
  let swallow_msg =
    "catch-all handler around a Durable call site swallows a failed \
     durable write, so the caller carries on as if the state reached \
     disk; name the exceptions you recover from or justify via allowlist"
  in
  let flag_case protected (c : Parsetree.case) =
    match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
    | Parsetree.Ppat_exception p
      when protected && catch_all p && c.Parsetree.pc_guard = None
           && not (reraises c.Parsetree.pc_rhs) ->
        add ~loc:p.Parsetree.ppat_loc swallow_msg
    | _ ->
        if
          protected
          && catch_all c.Parsetree.pc_lhs
          && c.Parsetree.pc_guard = None
          && not (reraises c.Parsetree.pc_rhs)
        then add ~loc:c.Parsetree.pc_lhs.Parsetree.ppat_loc swallow_msg
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } when audited -> (
        match ident_path txt with
        | [ ("open_out" | "open_out_bin" | "open_out_gen") as f ] ->
            add ~loc
              (Printf.sprintf
                 "bare %s in a durability-audited module; persistent \
                  state must go through Durable.atomic_write (tmp + \
                  fsync + rename + parent-dir fsync) or carry an \
                  allowlist entry saying why a torn file is safe here"
                 f)
        | _ -> ())
    | Parsetree.Pexp_try (body, cases) when is_lib scope ->
        List.iter (flag_case (mentions_durable body)) cases
    | Parsetree.Pexp_match (scrut, cases) when is_lib scope ->
        let protected = mentions_durable scrut in
        List.iter
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_exception _ -> flag_case protected c
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.Ast_iterator.structure it str;
  !acc

(* --- R10: net safety --------------------------------------------------- *)

(* The socket transport's contract (net.mli): every raw socket syscall
   lives inside the audited [Sockio] submodule, whose wrappers retry
   EINTR, surface would-block explicitly, and treat reset/broken-pipe as
   peer departure.  A bare [Unix.read] elsewhere in lib/serve silently
   loses all three properties — the kind of drift a review won't catch
   once the module is large.  The channel reads are
   the second half: net-facing code must bound every read by a
   caller-supplied buffer or an explicit limit, never by what the peer
   chooses to send ([input_line], [really_input], ...), and the ingest
   path decodes in blocks, not byte by byte ([input_byte]; the channel
   fallback for pipes is allowlisted with its justification).  The
   audited modules are lib/serve plus the two ingest decoders outside
   it. *)
let socket_syscall = function
  | [ "Unix";
      (( "read" | "write" | "single_write" | "accept" | "connect" | "select"
       | "recv" | "send" | "recvfrom" | "sendto" ) as f) ] ->
      Some f
  | _ -> None

let channel_read_message = function
  | [ (("input_line" | "really_input" | "really_input_string") as f) ]
  | [ "In_channel"; (("input_all" | "input_line") as f) ] ->
      Some
        (Printf.sprintf
           "unbounded channel read (%s) in a net-audited module; bound \
            every read by a caller-supplied buffer or explicit limit — \
            the peer must not control allocation"
           f)
  | [ (("input_byte" | "input_char") as f) ] ->
      Some
        (Printf.sprintf
           "per-byte channel read (%s) in a net-audited module; decode in \
            blocks (Binc.decode_varints over an mmap region) or justify \
            the channel fallback in the allowlist"
           f)
  | _ -> None

let is_net_audited path =
  let p = Finding.normalize_path path in
  in_serve p
  || List.exists (has_suffix p) [ "lib/ring/trace.ml"; "lib/util/binc.ml" ]

let net_findings ~path (str : Parsetree.structure) =
  let acc = ref [] in
  let add ~loc message =
    acc :=
      Finding.of_location ~rule:"r10-net-safety" ~file:path loc message
      :: !acc
  in
  (* Exempt code lexically inside [module Sockio = struct ... end] — the
     one place raw syscalls are supposed to live. *)
  let in_sockio = ref false in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> (
        let p = ident_path txt in
        (match socket_syscall p with
        | Some f when not !in_sockio ->
            add ~loc
              (Printf.sprintf
                 "raw socket syscall (Unix.%s) outside the audited Sockio \
                  wrappers; it would skip EINTR retry, would-block \
                  handling and peer-reset mapping — call Sockio.%s or \
                  justify via allowlist"
                 f f)
        | _ -> ());
        match channel_read_message p with
        | Some msg -> add ~loc msg
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let module_binding (self : Ast_iterator.iterator)
      (mb : Parsetree.module_binding) =
    let is_sockio =
      match mb.Parsetree.pmb_name.Location.txt with
      | Some "Sockio" -> true
      | _ -> false
    in
    let saved = !in_sockio in
    if is_sockio then in_sockio := true;
    Ast_iterator.default_iterator.Ast_iterator.module_binding self mb;
    in_sockio := saved
  in
  let it = { Ast_iterator.default_iterator with expr; module_binding } in
  it.Ast_iterator.structure it str;
  !acc

(* --- entry points ----------------------------------------------------- *)

let check_structure ~path (str : Parsetree.structure) =
  let scope = scope_of_path path in
  let exprs = expression_findings ~path ~scope str in
  let globals = if is_lib scope then toplevel_mutable_findings ~path str else [] in
  let durability =
    if is_lib scope then durability_findings ~path ~scope str else []
  in
  let net = if is_net_audited path then net_findings ~path str else [] in
  exprs @ globals @ durability @ net

let missing_mli ~files =
  let set = Hashtbl.create (List.length files * 2) in
  List.iter (fun f -> Hashtbl.replace set (Finding.normalize_path f) ()) files;
  List.filter_map
    (fun f ->
      let f = Finding.normalize_path f in
      if
        Filename.check_suffix f ".ml"
        && is_lib (scope_of_path f)
        && not (Hashtbl.mem set (f ^ "i"))
      then
        Some
          (Finding.make ~rule:"r6-missing-mli" ~file:f ~line:0 ~col:0
             "library module without an interface; add a .mli so the \
              public surface is deliberate")
      else None)
    files

(* --- interprocedural rules (r11–r14) ---------------------------------- *)

(* The direct sites of every definition reachable from a root, as
   findings.  They land on the site itself (not the path), so allowlist
   entries can scope to file:line and the justification reads next to
   the code. *)
let reached_sites ~rule ~reach ~select ~message effects =
  List.concat_map
    (fun id ->
      match (reach effects id, Effects.info effects id) with
      | Some root, Some info ->
          let n = info.Effects.node in
          List.filter_map
            (fun (s : Index.site) ->
              Option.map
                (fun what ->
                  Finding.make ~rule ~file:n.Index.file ~line:s.Index.s_line
                    ~col:s.Index.s_col
                    (message n.Index.display what root))
                (select s))
            info.Effects.direct
      | _ -> [])
    (Effects.node_ids effects)

(* r11-hot-alloc: every allocation site inside a function transitively
   reachable from a hot root. *)
let hot_alloc =
  reached_sites ~rule:"r11-hot-alloc" ~reach:Effects.hot_reach
    ~select:(fun s ->
      match s.Index.s_kind with Index.Alloc what -> Some what | _ -> None)
    ~message:
      (Printf.sprintf
         "%s allocates (%s) and is reachable from hot root %s — the \
          audited hot paths must stay allocation-free per call; hoist the \
          allocation, reuse a scratch buffer, or justify the amortization \
          via allowlist")

(* r12-transitive-partial: unhandled partiality idioms reachable from the
   serve/net request path.  The reachability already refuses to cross
   handled call edges, and handled sites are skipped here — a [try] or
   [match ... with exception] on the path is the named handler the rule
   asks for. *)
let transitive_partial =
  reached_sites ~rule:"r12-transitive-partial" ~reach:Effects.serve_reach
    ~select:(fun s ->
      match s.Index.s_kind with
      | Index.Partial what when not s.Index.s_handled -> Some what
      | _ -> None)
    ~message:
      (Printf.sprintf
         "%s can raise from %s and is reachable from serve root %s with no \
          intervening handler — a request must fail as a mapped error \
          frame, not an escaped Not_found/Failure; handle the exception, \
          use the total variant, or justify via allowlist")

(* r13-comparator-coverage: every comparator-shaped value exposed by a
   lib interface must be referenced from the test file set.  Names that
   collide with stdlib ([compare]/[equal]/[hash] bare) only count as
   covered under a qualified reference; distinctive names ([equal_foo],
   [compare_pair]) also accept a bare reference (local open). *)
let is_comparator_name name =
  let seg = function "compare" | "equal" | "hash" -> true | _ -> false in
  seg name || List.exists seg (String.split_on_char '_' name)

let comparator_coverage ~(index : Index.t) ~(tests : Index.t) =
  let refs = Index.references tests in
  let referenced modname name =
    let stdlib_collision =
      match name with "compare" | "equal" | "hash" -> true | _ -> false
    in
    List.exists
      (fun (m, v) ->
        String.equal v name
        &&
        match m with
        | Some m -> String.equal m modname
        | None -> not stdlib_collision)
      refs
  in
  List.filter_map
    (fun (e : Index.exposed) ->
      if
        is_comparator_name e.Index.e_name
        && is_lib (scope_of_path e.Index.e_file)
        && not (referenced e.Index.e_modname e.Index.e_name)
      then
        Some
          (Finding.make ~rule:"r13-comparator-coverage" ~file:e.Index.e_file
             ~line:e.Index.e_line ~col:e.Index.e_col
             (Printf.sprintf
                "comparator %s.%s is exposed but never referenced from the \
                 test suite — the paper's guarantees ride on exact \
                 comparators, so every exposed compare/equal/hash needs \
                 qcheck or unit coverage (or a written justification)"
                e.Index.e_modname e.Index.e_name))
      else None)
    (Index.exposed index)

(* r14-unused-export: every value a lib interface exposes is referenced
   from outside its own module: named qualified ([M.v], alias-expanded)
   by a scanned file, which is every call edge the graph resolves from
   another file plus the values no edge can reach (externals, pattern
   bindings), or by a file of [evidence], the unscanned sibling
   directories (perfbench/, examples/, test/, ...).  A bare name only
   ever resolves inside its own file, so it is no evidence.  A reference
   from test/ is enough: oracles and accessors that tests check other
   code with stay.  Inside a module the compiler takes over once a value
   leaves the interface (dune's dev profile makes warnings 32 and 69
   errors). *)
let unused_export ~(index : Index.t) ~(evidence : Index.t) =
  let named = Hashtbl.create 1024 in
  List.iter
    (fun (m, v) -> Option.iter (fun m -> Hashtbl.replace named (m, v) ()) m)
    (Index.references index @ Index.references evidence);
  List.filter_map
    (fun (e : Index.exposed) ->
      if
        is_lib (scope_of_path e.Index.e_file)
        && not (Hashtbl.mem named (e.Index.e_modname, e.Index.e_name))
      then
        Some
          (Finding.make ~rule:"r14-unused-export" ~file:e.Index.e_file
             ~line:e.Index.e_line ~col:e.Index.e_col
             (Printf.sprintf
                "%s.%s is exposed but never referenced from outside its \
                 module — drop it from the interface (and delete it if the \
                 module does not use it either), or justify why it stays"
                e.Index.e_modname e.Index.e_name))
      else None)
    (Index.exposed index)

let descriptions =
  [
    ( "r1-poly-compare",
      "no polymorphic comparison in hot paths: generic compare / \
       Hashtbl.hash anywhere; first-class =, <, min, max and structural \
       literals under (=) in lib/mts, lib/ring, lib/serve, lib/util" );
    ( "r2-nondeterminism",
      "no clock reads (wall, CPU, monotonic) or Random.self_init in lib/ — \
       checkpoint/resume identity and pool byte-identity depend on lib/ \
       being a pure function of (seed, instance, requests)" );
    ( "r3-partial",
      "no List.hd / List.tl / Option.get / unsafe indexing outside \
       allowlisted, justified sites" );
    ( "r4-global-mutable",
      "top-level mutable state in lib/ (ref, Hashtbl.create, Array.make, \
       Atomic.make, ...) is shared across pool domains and needs a \
       written thread-safety note in the allowlist" );
    ( "r5-catchall-exn",
      "no catch-all try ... with _ -> handlers; bind the exception or \
       match specific constructors" );
    ("r6-missing-mli", "every lib/**/*.ml ships a corresponding .mli");
    ( "r7-domain-safety",
      "no Domain API use (Domain.self included) or pool job submission in \
       lib/ outside the audited Domain-safety allowlist — nested \
       parallelism deadlocks and schedule-dependent state hide behind \
       unaudited call sites" );
    ( "r9-durability",
      "no bare open_out / open_out_bin / open_out_gen in the \
       durability-audited modules (lib/serve, lib/workloads/trace_codec.ml, \
       lib/workloads/trace_io.ml, lib/util/durable.ml) — persistent state \
       goes through Durable.atomic_write; and no handler binding every \
       exception around Durable call sites in lib/, which would swallow \
       a failed durable write" );
    ( "r10-net-safety",
      "no raw socket syscalls (Unix.read / write / accept / connect / \
       select / send / recv ...) outside the audited Sockio wrappers — \
       which retry EINTR, surface would-block and map peer resets — and \
       no unbounded (input_line / really_input) or per-byte (input_byte / \
       input_char) channel reads, in lib/serve, lib/ring/trace.ml and \
       lib/util/binc.ml" );
    ( "r11-hot-alloc",
      "no heap allocation (closures, tuples, records, list conses, \
       escaping refs, Array.append / @ / ^ / sprintf ...) in functions \
       transitively reachable from the audited hot roots — \
       Engine.ingest*, the solver step Dynamic_alg.serve, the Binc \
       block decoders and the socket request codec's loops — outside \
       justified allowlist entries" );
    ( "r12-transitive-partial",
      "no unnamed partiality (Hashtbl.find / List.find / int_of_string \
       ...) reachable from the serve/net request path without an \
       intervening exception handler — requests fail as mapped error \
       frames, never as escaped Not_found" );
    ( "r13-comparator-coverage",
      "every comparator/equal/hash value exposed in a lib/**.mli is \
       referenced from test/ — exactness of comparators is what the \
       competitive guarantees ride on, so coverage is a ratchet" );
    ( "r14-unused-export",
      "every value exposed in a lib/**.mli is referenced from outside its \
       own module — by another lib module, bin/, bench/, perfbench/, \
       examples/ or test/ — so dead code is a finding" );
    ("parse-error", "file must parse with the OCaml 5.1 grammar");
  ]

(* --- --explain texts --------------------------------------------------- *)

let explain rule =
  let extended =
    match rule with
    | "r11-hot-alloc" ->
        Some
          "Interprocedural: the linter indexes every value definition in \
           the scanned tree (lib/lint/index.ml), resolves call heads \
           across modules into a call graph (lib/lint/effects.ml) and \
           walks it from the hot roots: Engine.ingest*, \
           Dynamic_alg.serve, Binc.decode_varints*, Proto.encode_edges, \
           Proto.decode_edges, plus any --hot-root extras.  Findings are \
           the direct allocation sites inside every function reached — \
           closures (one per closure, however many parameters; a closure \
           in a loop body is rebuilt every \
           iteration), tuples, records, array/list literals, cons cells, \
           refs that escape (a ref used only through !, :=, incr and decr \
           outside any closure is a mutable local and allocates nothing), \
           and allocating stdlib such as @, ^, Array.append, List.map and \
           Printf.sprintf.  First-class dispatch through record fields \
           (the Online interface) is invisible to the index, which is why \
           the solver-side serve is a root in its own right.  Amortized \
           allocations (per-batch scratch, error-raise paths) belong in \
           lint/allowlist.txt with a written justification, scoped to \
           their line; per-element allocations in steady state are bugs."
    | "r12-transitive-partial" ->
        Some
          "Interprocedural: using the same call graph as r11, the serve \
           roots — Engine.ingest*, Net.handle_*, Net.dispatch_frames, \
           Tenant.serve* — are traversed without crossing call edges that \
           sit under a try or a match-with-exception case: a handler on \
           the path is exactly the interposition the rule asks for.  Any \
           reachable unhandled partiality idiom (Hashtbl.find, List.find, \
           List.nth, Stack.pop, Queue.pop, int_of_string, String.index, \
           ...) is reported at its site; List.hd, List.tl and Option.get \
           are r3's everywhere.  Deliberate failwith/invalid_arg with a \
           written invariant message are not counted — the rule patrols \
           *unnamed* partiality, the kind that escapes as Not_found and \
           tears down a connection without a mapped error frame."
    | "r13-comparator-coverage" ->
        Some
          "Cross-checked against the test file set: every value whose \
           name is compare/equal/hash or carries one of those as a \
           _-separated segment, exposed in a lib interface, must be \
           referenced somewhere under test/.  Bare-stdlib-colliding names \
           (compare, equal, hash exactly) only count as covered under a \
           qualified reference (M.compare); distinctive names also accept \
           a bare reference under a local open.  The competitive-ratio \
           harness trusts comparator exactness, so an untested comparator \
           is an unverified invariant."
    | "r14-unused-export" ->
        Some
          "Over the same index as r11: an exposed value counts as used \
           when a scanned file, or a file in an unscanned sibling \
           directory (lib, bin, bench, perfbench, examples, test beside a \
           scanned directory), names it qualified (M.v, through module \
           aliases, local aliases and local opens) — every call edge the \
           graph resolves from another file, plus externals no edge \
           reaches.  Bare names resolve only inside their own file and do \
           not count: a value only its module uses belongs out of the \
           interface, where dune's dev \
           profile turns it into an unused-value error (warning 32) the \
           moment nothing uses it.  A test reference is enough, so \
           oracles that tests check other code against stay; a value \
           that only its own test calls is a judgement call the rule \
           leaves to review.  With no sibling directory on disk the rule \
           has no evidence and stays silent (rbgp-lint lib/serve cannot \
           see the other directories' uses), and a comparator that \
           r13-comparator-coverage reports is left to r13.  References \
           inside a functor argument or a first-class module unpack are \
           invisible; such a value needs an allowlist entry saying who \
           uses it."
    | _ -> None
  in
  match (List.assoc_opt rule descriptions, extended) with
  | None, _ -> None
  | Some d, None -> Some d
  | Some d, Some e -> Some (d ^ "\n\n" ^ e)
