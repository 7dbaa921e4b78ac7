(* The repo-specific rule set, implemented over the compiler's Parsetree.

   Each rule protects an invariant no compiler checks:

   R1  poly-compare     hot loops must stay monomorphic: generic compare /
                        Hashtbl.hash anywhere, and first-class =, <, min,
                        max (or structural-literal =) in the hot-path
                        libraries lib/mts, lib/ring, lib/serve, lib/util.
   R2  nondeterminism   checkpoint/resume identity and pool byte-identity
                        require lib/ to be a pure function of its inputs:
                        no wall-clock reads, no Random.self_init, no
                        Domain.self-derived values.
   R3  partial          List.hd / List.tl / Option.get / unsafe array ops
                        turn empty-case bugs into runtime explosions far
                        from the cause; match explicitly or justify.
   R4  global-mutable   top-level mutable state (ref, Hashtbl.create,
                        Array.make, Atomic.make, ... at module level) in
                        lib/ is shared across Pool worker domains; every
                        instance needs a written thread-safety note.
   R5  catchall-exn     [try ... with _ ->] swallows Stack_overflow,
                        assertion failures and algorithm bugs alike; bind
                        the exception or match specific constructors.
   R6  missing-mli      every lib/ module ships an interface, so the
                        public surface is deliberate.
   R7  domain-safety    spawning domains or submitting pool jobs from an
                        arbitrary lib/ module risks nested-parallel
                        deadlocks and schedule-dependent state; parallel
                        entry points live behind audited, allowlisted
                        modules only.

   Rules are syntactic (no typing pass), which keeps the linter fast and
   dependency-free; the cost is a small class of heuristic calls, all
   routed through the allowlist with written justifications. *)

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
  | [ "Domain"; "self" ] ->
      Some
        "Domain.self is schedule-dependent; deriving state or hashes from \
         it breaks pool byte-identity"
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
    acc :=
      Finding.of_location ~rule ~severity:Finding.Error ~file:path loc message
      :: !acc
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
      Finding.of_location ~rule:"r4-global-mutable" ~severity:Finding.Error
        ~file:path loc
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

(* --- R8: hot-IO hygiene ----------------------------------------------- *)

(* The audited hot-IO modules: every byte of the ingest path flows through
   these, so a per-byte channel read or a closure allocated inside a
   serving loop is a real per-request cost (the difference between the
   channel and mmap decode rates in the bench ingest section), not a style nit.  The
   channel fallback for pipes and stdin legitimately reads byte-wise —
   those sites carry founding allowlist entries with the justification
   written down. *)
let hot_io_file_suffixes = [ "lib/ring/trace.ml"; "lib/util/binc.ml" ]

let has_suffix p suf =
  let lp = String.length p and ls = String.length suf in
  lp >= ls && String.equal (String.sub p (lp - ls) ls) suf

let is_hot_io path =
  let p = Finding.normalize_path path in
  (match scope_of_path p with
  | { area = `Lib; sublib = Some "serve" } -> true
  | _ -> false)
  || List.exists (has_suffix p) hot_io_file_suffixes

let hot_io_findings ~path (str : Parsetree.structure) =
  let acc = ref [] in
  let add ~loc message =
    acc :=
      Finding.of_location ~rule:"r8-hot-io" ~severity:Finding.Error ~file:path
        loc message
      :: !acc
  in
  (* loop_depth > 0 <=> the iterator is inside a while/for body; a closure
     allocated there is (re)built on every iteration *)
  let loop_depth = ref 0 in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } ->
        (match ident_path txt with
        | [ ("input_byte" | "input_char") as f ] ->
            add ~loc
              (Printf.sprintf
                 "per-byte channel read (%s) in an audited hot-IO module; \
                  decode in blocks (Binc.decode_varints over an mmap \
                  region) or justify the channel fallback in the allowlist"
                 f)
        | _ -> ())
    | Parsetree.Pexp_while (cond, body) ->
        self.Ast_iterator.expr self cond;
        incr loop_depth;
        self.Ast_iterator.expr self body;
        decr loop_depth
    | Parsetree.Pexp_for (_, lo, hi, _, body) ->
        self.Ast_iterator.expr self lo;
        self.Ast_iterator.expr self hi;
        incr loop_depth;
        self.Ast_iterator.expr self body;
        decr loop_depth
    | (Parsetree.Pexp_fun _ | Parsetree.Pexp_function _)
      when !loop_depth > 0 ->
        add ~loc:e.Parsetree.pexp_loc
          "closure allocated inside a hot loop body; hoist it out of the \
           loop (reuse one closure or inline the call) or justify the \
           allocation in the allowlist";
        (* one finding per closure, not per curried parameter: scan the
           body as if at top level (a loop inside it re-arms the check) *)
        let saved = !loop_depth in
        loop_depth := 0;
        Ast_iterator.default_iterator.Ast_iterator.expr self e;
        loop_depth := saved
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.Ast_iterator.structure it str;
  !acc

(* --- R9: durability hygiene ------------------------------------------- *)

(* The audited durable-write modules: every byte that must survive a
   crash (checkpoints, trace artifacts) is produced here, and the only
   sanctioned way to publish it is Durable.atomic_write (tmp + fsync +
   rename + parent-dir fsync).  A bare open_out to a persistent path can
   be torn by a crash mid-write — exactly the failure the fault injector
   exists to exercise — so every remaining channel-writer site carries an
   allowlist entry saying why a torn file is acceptable there.

   The second half patrols the recovery machinery itself: a catch-all
   handler wrapped around code that calls into the Fault or Durable layer
   swallows Injected_crash, turning a simulated kill into a silently
   absorbed no-op and making the crash matrix vacuous.  Handlers that
   name their exceptions (as the supervisor does) or visibly re-raise are
   fine. *)
let durable_file_suffixes =
  [ "lib/workloads/trace_codec.ml"; "lib/workloads/trace_io.ml";
    "lib/util/durable.ml" ]

let is_durable_audited path =
  let p = Finding.normalize_path path in
  (match scope_of_path p with
  | { area = `Lib; sublib = Some "serve" } -> true
  | _ -> false)
  || List.exists (has_suffix p) durable_file_suffixes

let durability_findings ~path ~scope (str : Parsetree.structure) =
  let audited = is_durable_audited path in
  let acc = ref [] in
  let add ~loc message =
    acc :=
      Finding.of_location ~rule:"r9-durability" ~severity:Finding.Error
        ~file:path loc message
      :: !acc
  in
  (* does this subtree call into the fault / durable layer? *)
  let mentions_recovery_layer e0 =
    let rec member_of m = function
      | x :: _ :: _ when String.equal x m -> true
      | _ :: rest -> member_of m rest
      | [] -> false
    in
    let hit lid =
      let p = flatten [] lid in
      member_of "Fault" p || member_of "Durable" p
    in
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
  let catch_all (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> true
    | Parsetree.Ppat_alias ({ ppat_desc = Parsetree.Ppat_any; _ }, _) -> true
    | _ -> false
  in
  let swallow_msg =
    "catch-all handler around a fault/durability call site swallows \
     Injected_crash, silently absorbing a simulated kill; name the \
     exceptions you recover from (and let Injected_crash escape) or \
     justify via allowlist"
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
        List.iter (flag_case (mentions_recovery_layer body)) cases
    | Parsetree.Pexp_match (scrut, cases) when is_lib scope ->
        let protected = mentions_recovery_layer scrut in
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
   EINTR, surface would-block explicitly, treat reset/broken-pipe as
   peer departure, and route reads through the fault layer so the crash
   matrix reaches the networked path.  A bare [Unix.read] elsewhere in
   lib/serve silently loses all four properties — the kind of drift a
   review won't catch once the module is large.  The second half flags
   unbounded channel-read idioms ([input_line], [really_input], ...):
   net-facing code must bound every read by a caller-supplied buffer or
   an explicit limit, never by what the peer chooses to send. *)
let socket_syscall = function
  | [ "Unix";
      (( "read" | "write" | "single_write" | "accept" | "connect" | "select"
       | "recv" | "send" | "recvfrom" | "sendto" ) as f) ] ->
      Some f
  | _ -> None

let unbounded_read_message = function
  | [ (("input_line" | "really_input" | "really_input_string") as f) ]
  | [ "In_channel"; (("input_all" | "input_line") as f) ] ->
      Some
        (Printf.sprintf
           "unbounded channel read (%s) in a net-audited module; bound \
            every read by a caller-supplied buffer or explicit limit — \
            the peer must not control allocation"
           f)
  | _ -> None

let is_net_audited path =
  match scope_of_path (Finding.normalize_path path) with
  | { area = `Lib; sublib = Some "serve" } -> true
  | _ -> false

let net_findings ~path (str : Parsetree.structure) =
  let acc = ref [] in
  let add ~loc message =
    acc :=
      Finding.of_location ~rule:"r10-net-safety" ~severity:Finding.Error
        ~file:path loc message
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
                  handling, peer-reset mapping and the fault layer's \
                  read hooks — call Sockio.%s or justify via allowlist"
                 f f)
        | _ -> ());
        match unbounded_read_message p with
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
  let hot_io = if is_hot_io path then hot_io_findings ~path str else [] in
  let durability =
    if is_durable_audited path || is_lib scope then
      durability_findings ~path ~scope str
    else []
  in
  let net = if is_net_audited path then net_findings ~path str else [] in
  exprs @ globals @ hot_io @ durability @ net

(* Interfaces carry no expressions, so only parse errors (reported by the
   engine) apply today; kept as a hook for future signature rules. *)
let check_signature ~path:_ (_sig : Parsetree.signature) = []

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
          (Finding.make ~rule:"r6-missing-mli" ~severity:Finding.Error ~file:f
             ~line:0 ~col:0
             "library module without an interface; add a .mli so the \
              public surface is deliberate")
      else None)
    files

(* --- interprocedural rules (r11–r13) ---------------------------------- *)

(* r11-hot-alloc: every direct allocation site inside a function
   transitively reachable from a hot root.  Findings land on the
   allocation site itself (not the path), so allowlist entries can scope
   to file:line and the justification reads next to the code. *)
let hot_alloc (effects : Effects.t) =
  List.concat_map
    (fun id ->
      match Effects.hot_reach effects id with
      | None -> []
      | Some root -> (
          match Effects.info effects id with
          | None -> []
          | Some info ->
              let n = info.Effects.node in
              List.filter_map
                (fun (d : Effects.direct) ->
                  if d.Effects.d_eff.Effects.alloc then
                    Some
                      (Finding.make ~rule:"r11-hot-alloc"
                         ~severity:Finding.Error ~file:n.Index.file
                         ~line:d.Effects.d_line ~col:d.Effects.d_col
                         (Printf.sprintf
                            "%s allocates (%s) and is reachable from hot \
                             root %s — the audited hot paths must stay \
                             allocation-free per call; hoist the \
                             allocation, reuse a scratch buffer, or \
                             justify the amortization via allowlist"
                            n.Index.display d.Effects.d_what root))
                  else None)
                info.Effects.direct))
    (Effects.node_ids effects)

(* r12-transitive-partial: unhandled partiality idioms reachable from the
   serve/net request path.  The reachability already refuses to cross
   handled call edges, and handled sites are skipped here — a [try] or
   [match ... with exception] on the path is the named handler the rule
   asks for. *)
let transitive_partial (effects : Effects.t) =
  List.concat_map
    (fun id ->
      match Effects.serve_reach effects id with
      | None -> []
      | Some root -> (
          match Effects.info effects id with
          | None -> []
          | Some info ->
              let n = info.Effects.node in
              List.filter_map
                (fun (d : Effects.direct) ->
                  if d.Effects.d_eff.Effects.partial && not d.Effects.d_handled
                  then
                    Some
                      (Finding.make ~rule:"r12-transitive-partial"
                         ~severity:Finding.Error ~file:n.Index.file
                         ~line:d.Effects.d_line ~col:d.Effects.d_col
                         (Printf.sprintf
                            "%s can raise from %s and is reachable from \
                             serve root %s with no intervening handler — \
                             a request must fail as a mapped error frame, \
                             not an escaped Not_found/Failure; handle the \
                             exception, use the total variant, or justify \
                             via allowlist"
                            n.Index.display d.Effects.d_what root))
                  else None)
                info.Effects.direct))
    (Effects.node_ids effects)

(* r13-comparator-coverage: every comparator-shaped value exposed by a
   lib interface must be referenced from the test file set.  Names that
   collide with stdlib ([compare]/[equal]/[hash] bare) only count as
   covered under a qualified reference; distinctive names ([equal_foo],
   [compare_severity]) also accept a bare reference (local open). *)
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
          (Finding.make ~rule:"r13-comparator-coverage" ~severity:Finding.Error
             ~file:e.Index.e_file ~line:e.Index.e_line ~col:e.Index.e_col
             (Printf.sprintf
                "comparator %s.%s is exposed but never referenced from the \
                 test suite — the paper's guarantees ride on exact \
                 comparators, so every exposed compare/equal/hash needs \
                 qcheck or unit coverage (or a written justification)"
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
      "no wall-clock, Random.self_init or Domain.self in lib/ — \
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
      "no Domain API use or pool job submission in lib/ outside the \
       audited Domain-safety allowlist — nested parallelism deadlocks \
       and schedule-dependent state hide behind unaudited call sites" );
    ( "r8-hot-io",
      "no per-byte channel reads (input_byte / input_char) and no closure \
       allocation inside loop bodies in the audited hot-IO modules \
       (lib/serve, lib/ring/trace.ml, lib/util/binc.ml) — the ingest path \
       decodes in blocks; the channel fallback is allowlisted with its \
       justification" );
    ( "r9-durability",
      "no bare open_out / open_out_bin / open_out_gen in the \
       durability-audited modules (lib/serve, lib/workloads/trace_codec.ml, \
       lib/workloads/trace_io.ml, lib/util/durable.ml) — persistent state \
       goes through Durable.atomic_write; and no catch-all handlers \
       around Fault/Durable call sites in lib/, which would swallow \
       Injected_crash and blind the crash matrix" );
    ( "r10-net-safety",
      "no raw socket syscalls (Unix.read / write / accept / connect / \
       select / send / recv ...) in lib/serve outside the audited Sockio \
       wrappers — which retry EINTR, surface would-block, map peer resets \
       and route reads through the fault layer — and no unbounded channel \
       reads (input_line / really_input) in net-audited modules" );
    ( "r11-hot-alloc",
      "no heap allocation (closures, tuples, records, list conses, \
       Array.append / @ / ^ / sprintf ...) in functions transitively \
       reachable from the audited hot roots — Engine.ingest*, the \
       solver step Dynamic_alg.serve and the Binc block decoders — \
       outside justified allowlist entries" );
    ( "r12-transitive-partial",
      "no unnamed partiality (List.hd / Option.get / Hashtbl.find / \
       int_of_string ...) reachable from the serve/net request path \
       without an intervening exception handler — requests fail as \
       mapped error frames, never as escaped Not_found" );
    ( "r13-comparator-coverage",
      "every comparator/equal/hash value exposed in a lib/**.mli is \
       referenced from test/ — exactness of comparators is what the \
       competitive guarantees ride on, so coverage is a ratchet" );
    ("parse-error", "file must parse with the OCaml 5.1 grammar");
  ]

(* --- --explain texts --------------------------------------------------- *)

let explain rule =
  let find k = List.assoc_opt k descriptions in
  let extended =
    match rule with
    | "r11-hot-alloc" ->
        Some
          "Interprocedural: the linter indexes every value definition in \
           the scanned tree (lib/lint/index.ml), resolves call heads \
           across modules, and runs a fixpoint (lib/lint/effects.ml) \
           marking each function that allocates per call — closures, \
           tuples, records, array/list literals, cons cells, and \
           allocating stdlib such as @, ^, Array.append, List.map and \
           Printf.sprintf.  Findings are the direct allocation sites \
           inside any function transitively reachable from a hot root: \
           Engine.ingest*, Dynamic_alg.serve, Binc.decode_varints*, plus \
           any --hot-root extras.  First-class dispatch through record \
           fields (the Online interface) is invisible to the index, which \
           is why the solver-side serve is a root in its own right.  \
           Amortized allocations (per-batch scratch, startup-only paths) \
           belong in lint/allowlist.txt with a written justification; \
           per-element allocations in steady state are bugs."
    | "r12-transitive-partial" ->
        Some
          "Interprocedural: using the same call graph as r11, the serve \
           roots — Engine.ingest*, Net.handle_*, Net.dispatch_frames, \
           Tenant.serve* — are traversed without crossing call edges that \
           sit under a try or a match-with-exception case: a handler on \
           the path is exactly the interposition the rule asks for.  Any \
           reachable unhandled partiality idiom (List.hd, List.tl, \
           Option.get, Hashtbl.find, Stack.pop, Queue.pop, int_of_string, \
           String.index, ...) is reported at its site.  Deliberate \
           failwith/invalid_arg with a written invariant message are not \
           counted — the rule patrols *unnamed* partiality, the kind that \
           escapes as Not_found and tears down a connection without a \
           mapped error frame."
    | "r13-comparator-coverage" ->
        Some
          "Cross-checked against the test file set: every value whose \
           name is compare/equal/hash or carries one of those as a \
           _-separated segment, exposed in a lib interface, must be \
           referenced somewhere under test/.  Bare-stdlib-colliding names \
           (compare, equal, hash exactly) only count as covered under a \
           qualified reference (M.compare); distinctive names also accept \
           a bare reference under a local open.  The ROADMAP's \
           million-scale push names this ratchet explicitly: the \
           competitive-ratio harness trusts comparator exactness, so an \
           untested comparator is an unverified invariant."
    | _ -> None
  in
  match (find rule, extended) with
  | None, _ -> None
  | Some d, None -> Some d
  | Some d, Some e -> Some (d ^ "\n\n" ^ e)
