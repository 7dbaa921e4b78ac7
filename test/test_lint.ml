(* Tests for the repo-specific static-analysis pass (lib/lint).

   Per rule: fixtures the rule must flag and fixtures it must not, and a
   check that a site two rules could claim carries one rule id.  Then the
   allowlist contract (justification mandatory, no field after the
   path, suppression, line scoping, staleness), the SARIF bytes of a
   fixed outcome, and a self-lint check asserting the repository itself
   is clean under the checked-in allowlist. *)

module Finding = Rbgp_lint.Finding
module Rules = Rbgp_lint.Rules
module Engine = Rbgp_lint.Engine
module Allowlist = Rbgp_lint.Allowlist
module Reporter = Rbgp_lint.Reporter
module Ljson = Rbgp_lint.Ljson
module Index = Rbgp_lint.Index
module Effects = Rbgp_lint.Effects
module Sarif = Rbgp_lint.Sarif

let rules_of ~path src =
  List.map (fun f -> f.Finding.rule) (Engine.lint_source ~path src)

let count rule ~path src =
  List.length (List.filter (String.equal rule) (rules_of ~path src))

let check_flags name rule ~path src =
  Alcotest.(check bool) name true (count rule ~path src > 0)

let check_clean name rule ~path src =
  Alcotest.(check int) name 0 (count rule ~path src)

(* --- R1: polymorphic comparison -------------------------------------- *)

let test_r1 () =
  check_flags "bare compare flagged everywhere" "r1-poly-compare"
    ~path:"lib/offline/fake.ml" "let f a b = compare a b";
  check_flags "Stdlib.compare flagged" "r1-poly-compare"
    ~path:"lib/mts/fake.ml" "let f a b = Stdlib.compare a b";
  check_flags "Hashtbl.hash flagged" "r1-poly-compare" ~path:"bin/fake.ml"
    "let h x = Hashtbl.hash x";
  check_flags "first-class min in hot lib flagged" "r1-poly-compare"
    ~path:"lib/ring/fake.ml" "let m xs = Array.fold_left min 0 xs";
  check_flags "first-class (=) in hot lib flagged" "r1-poly-compare"
    ~path:"lib/serve/fake.ml" "let eq = ( = )";
  check_flags "structural (=) in hot lib flagged" "r1-poly-compare"
    ~path:"lib/util/fake.ml" "let f x = x = (1, 2)";
  check_clean "Int.compare is clean" "r1-poly-compare" ~path:"lib/mts/fake.ml"
    "let f a b = Int.compare a b";
  check_clean "applied min is clean even in hot lib" "r1-poly-compare"
    ~path:"lib/ring/fake.ml" "let m a b = min a b";
  check_clean "first-class min outside hot libs is clean" "r1-poly-compare"
    ~path:"lib/offline/fake.ml" "let m xs = Array.fold_left min 0 xs";
  check_clean "structural (=) outside hot libs is clean" "r1-poly-compare"
    ~path:"lib/harness/fake.ml" "let f x = x = (1, 2)"

(* --- R2: nondeterminism ----------------------------------------------- *)

let test_r2 () =
  check_flags "gettimeofday in lib flagged" "r2-nondeterminism"
    ~path:"lib/ring/fake.ml" "let t () = Unix.gettimeofday ()";
  check_flags "Random.self_init in lib flagged" "r2-nondeterminism"
    ~path:"lib/core/fake.ml" "let () = Random.self_init ()";
  check_flags "Sys.time in lib flagged" "r2-nondeterminism"
    ~path:"lib/util/fake.ml" "let t () = Sys.time ()";
  check_clean "Domain.self is r7's, not r2's" "r2-nondeterminism"
    ~path:"lib/util/fake.ml" "let d () = Domain.self ()";
  check_flags "monotonic clock in lib flagged" "r2-nondeterminism"
    ~path:"lib/serve/fake.ml" "let t () = Rbgp_util.Clock.now_ns ()";
  check_clean "clock in bin/ is fine" "r2-nondeterminism" ~path:"bin/fake.ml"
    "let t () = Unix.gettimeofday ()";
  check_clean "seeded Random in lib is fine" "r2-nondeterminism"
    ~path:"lib/core/fake.ml" "let s = Random.State.make [| 42 |]"

(* --- R3: partial functions -------------------------------------------- *)

let test_r3 () =
  check_flags "List.hd flagged" "r3-partial" ~path:"lib/offline/fake.ml"
    "let f l = List.hd l";
  check_flags "Option.get flagged" "r3-partial" ~path:"bin/fake.ml"
    "let f o = Option.get o";
  check_flags "Array.unsafe_get flagged" "r3-partial" ~path:"lib/mts/fake.ml"
    "let f a = Array.unsafe_get a 0";
  check_clean "total List functions are clean" "r3-partial"
    ~path:"lib/offline/fake.ml" "let f l = List.length l + List.length l"

(* --- R4: top-level mutable state -------------------------------------- *)

let test_r4 () =
  check_flags "top-level Hashtbl in lib flagged" "r4-global-mutable"
    ~path:"lib/offline/fake.ml" "let cache = Hashtbl.create 16";
  check_flags "top-level ref in lib flagged" "r4-global-mutable"
    ~path:"lib/util/fake.ml" "let counter = ref 0";
  check_flags "top-level alloc inside nested module flagged"
    "r4-global-mutable" ~path:"lib/util/fake.ml"
    "module M = struct let slots = Array.make 4 0 end";
  check_clean "per-call alloc is clean" "r4-global-mutable"
    ~path:"lib/util/fake.ml" "let f () = Hashtbl.create 16";
  check_clean "top-level mutable in bin/ is fine" "r4-global-mutable"
    ~path:"bin/fake.ml" "let cache = Hashtbl.create 16";
  check_clean "Mutex.create is not a data cell" "r4-global-mutable"
    ~path:"lib/util/fake.ml" "let m = Mutex.create ()"

(* --- R5: catch-all exception handlers --------------------------------- *)

let test_r5 () =
  check_flags "try-with-underscore flagged" "r5-catchall-exn"
    ~path:"lib/harness/fake.ml" "let f g = try g () with _ -> 0";
  check_flags "exception _ match case flagged" "r5-catchall-exn"
    ~path:"lib/harness/fake.ml"
    "let f g = match g () with x -> x | exception _ -> 0";
  check_clean "specific handler is clean" "r5-catchall-exn"
    ~path:"lib/harness/fake.ml" "let f g = try g () with Not_found -> 0";
  check_clean "bound exception is clean" "r5-catchall-exn"
    ~path:"lib/harness/fake.ml"
    "let f g = try g () with e -> raise e"

(* --- R6: missing interfaces ------------------------------------------- *)

let test_r6 () =
  let findings =
    Rules.missing_mli
      ~files:
        [
          "lib/foo/a.ml";
          "lib/foo/a.mli";
          "lib/foo/b.ml";
          "bin/c.ml";
          "bench/d.ml";
        ]
  in
  Alcotest.(check (list string))
    "only the uncovered lib module is flagged" [ "lib/foo/b.ml" ]
    (List.map (fun f -> f.Finding.file) findings);
  Alcotest.(check (list string))
    "no findings when every lib module has an interface" []
    (List.map
       (fun f -> f.Finding.file)
       (Rules.missing_mli ~files:[ "lib/foo/a.ml"; "lib/foo/a.mli" ]))

(* --- R7: Domain-safety ------------------------------------------------- *)

let test_r7 () =
  check_flags "Domain.spawn in lib flagged" "r7-domain-safety"
    ~path:"lib/ring/fake.ml" "let d f = Domain.spawn f";
  check_flags "Domain.join in lib flagged" "r7-domain-safety"
    ~path:"lib/core/fake.ml" "let j d = Domain.join d";
  check_flags "qualified pool map in lib flagged" "r7-domain-safety"
    ~path:"lib/core/fake.ml" "let f xs = Rbgp_util.Pool.map succ xs";
  check_flags "aliased pool map in lib flagged" "r7-domain-safety"
    ~path:"lib/serve/fake.ml"
    "module Pool = Rbgp_util.Pool\nlet f xs = Pool.map succ xs";
  check_clean "Domain use in bin/ is fine" "r7-domain-safety"
    ~path:"bin/fake.ml" "let d f = Domain.spawn f";
  check_clean "pool use in bench/ is fine" "r7-domain-safety"
    ~path:"bench/fake.ml" "let f xs = Rbgp_util.Pool.map succ xs";
  check_clean "unrelated module members are clean" "r7-domain-safety"
    ~path:"lib/ring/fake.ml" "let f x = Array.length x + Int.abs x"

(* --- R9: durability hygiene -------------------------------------------- *)

let test_r9 () =
  check_flags "open_out_bin in lib/serve flagged" "r9-durability"
    ~path:"lib/serve/fake.ml" "let f path = open_out_bin path";
  check_flags "open_out in the trace writer flagged" "r9-durability"
    ~path:"lib/workloads/trace_io.ml" "let f path = open_out path";
  check_flags "open_out_gen in the binary trace writer flagged"
    "r9-durability" ~path:"lib/workloads/trace_codec.ml"
    "let f path = open_out_gen [ Open_binary ] 0o644 path";
  check_flags "bound handler around a Durable write flagged" "r9-durability"
    ~path:"lib/serve/fake.ml"
    "let f path d = try Durable.atomic_write ~path d with e -> ignore e";
  check_flags "bare-variable handler around Durable flagged" "r9-durability"
    ~path:"lib/util/fake.ml"
    "let f path d = try Durable.atomic_write ~path d with e -> ignore e";
  check_flags "[_ as e] handler around a Durable write flagged"
    "r9-durability" ~path:"lib/serve/fake.ml"
    "let f path d = try Durable.atomic_write ~path d with _ as e -> ignore e";
  check_flags "bound [exception e] around a Durable write flagged"
    "r9-durability" ~path:"lib/serve/fake.ml"
    "let f path d = match Durable.atomic_write ~path d with () -> 0 \
     | exception e -> ignore e; 1";
  check_clean "bare [_] around a Durable write is r5's, not r9's"
    "r9-durability" ~path:"lib/serve/fake.ml"
    "let f path d = try Durable.atomic_write ~path d with _ -> ()";
  check_clean "bare [exception _] around a Durable write is r5's, not r9's"
    "r9-durability" ~path:"lib/serve/fake.ml"
    "let f path d = match Durable.atomic_write ~path d with () -> 0 \
     | exception _ -> 1";
  check_clean "open_out outside the audited modules is clean"
    "r9-durability" ~path:"lib/harness/fake.ml"
    "let f path = open_out path";
  check_clean "open_out in bin/ is clean" "r9-durability" ~path:"bin/fake.ml"
    "let f path = open_out_bin path";
  check_clean "named handler around a Durable write is clean"
    "r9-durability" ~path:"lib/serve/fake.ml"
    "let f path d = try Durable.atomic_write ~path d with Sys_error _ -> ()";
  check_clean "re-raising handler around Durable is clean" "r9-durability"
    ~path:"lib/util/fake.ml"
    "let f path d = try Durable.atomic_write ~path d with e -> ignore d; \
     raise e";
  check_clean "bound handler far from the recovery layer is clean"
    "r9-durability" ~path:"lib/offline/fake.ml"
    "let f g = try g () with e -> ignore e"

(* --- R10: net safety --------------------------------------------------- *)

let test_r10 () =
  check_flags "Unix.read outside Sockio flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f fd b = Unix.read fd b 0 16";
  check_flags "Unix.accept outside Sockio flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f fd = Unix.accept fd";
  check_flags "Unix.select outside Sockio flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f r = Unix.select r [] [] 0.1";
  check_flags "syscall in a non-Sockio submodule flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml"
    "module Io = struct let f fd b = Unix.write fd b 0 4 end";
  check_flags "input_line in a net-audited module flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f ic = input_line ic";
  check_flags "really_input_string in lib/serve flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f ic n = really_input_string ic n";
  check_flags "input_byte in lib/serve flagged" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f ic = input_byte ic";
  check_flags "Stdlib.input_char in binc flagged" "r10-net-safety"
    ~path:"lib/util/binc.ml" "let f ic = Stdlib.input_char ic";
  check_flags "input_byte in the trace recorder flagged" "r10-net-safety"
    ~path:"lib/ring/trace.ml" "let f ic = input_byte ic";
  check_clean "input_byte outside the audited modules is clean"
    "r10-net-safety" ~path:"lib/workloads/fake.ml" "let f ic = input_byte ic";
  check_clean "input_byte in bin/ is clean" "r10-net-safety"
    ~path:"bin/fake.ml" "let f ic = input_byte ic";
  check_clean "Unix.read inside Sockio is clean" "r10-net-safety"
    ~path:"lib/serve/fake.ml"
    "module Sockio = struct let f fd b = Unix.read fd b 0 16 end";
  check_clean "wrapper call sites are clean" "r10-net-safety"
    ~path:"lib/serve/fake.ml"
    "module Sockio = struct let read fd b = Unix.read fd b 0 16 end\n\
     let f fd b = Sockio.read fd b";
  check_clean "Unix.read outside lib/serve is clean" "r10-net-safety"
    ~path:"lib/util/fake.ml" "let f fd b = Unix.read fd b 0 16";
  check_clean "Unix.read in bin/ is clean" "r10-net-safety" ~path:"bin/fake.ml"
    "let f fd b = Unix.read fd b 0 16";
  check_clean "non-syscall Unix setup calls are clean" "r10-net-safety"
    ~path:"lib/serve/fake.ml" "let f fd = Unix.set_nonblock fd"

(* --- parse errors ------------------------------------------------------ *)

let test_parse_error () =
  check_flags "unparseable source yields parse-error" "parse-error"
    ~path:"lib/mts/fake.ml" "let = ="

(* --- allowlist ---------------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let entry_exn src =
  match Allowlist.parse src with
  | Ok entries -> entries
  | Error e -> Alcotest.failf "allowlist parse failed: %s" e

let test_allowlist_parse () =
  let entries =
    entry_exn
      "# shared cache, mutex-guarded\nr4-global-mutable lib/offline/fake.ml\n"
  in
  (match entries with
  | [ e ] ->
      Alcotest.(check string) "rule" "r4-global-mutable" e.Allowlist.rule;
      Alcotest.(check string)
        "justification" "shared cache, mutex-guarded" e.Allowlist.justification;
      Alcotest.(check bool) "no line scope" true (e.Allowlist.line = None)
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
  (* justification is mandatory *)
  (match Allowlist.parse "r1-poly-compare lib/mts/fake.ml\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unjustified entry must be rejected");
  (* a field after the path is rejected, naming it *)
  (match
     Allowlist.parse
       "# temporary\nr4-global-mutable lib/offline/fake.ml expires=2026-01-31\n"
   with
  | Error e ->
      Alcotest.(check bool) "error names the field" true
        (contains_sub ~sub:"expires=2026-01-31" e)
  | Ok _ -> Alcotest.fail "a field after the path must be rejected");
  (* a blank line resets the pending justification *)
  match Allowlist.parse "# file header, not a justification\n\nr1-poly-compare lib/mts/fake.ml\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "blank line must reset the justification"

let fake_findings () =
  Engine.lint_source ~path:"lib/offline/fake.ml"
    "let cache = Hashtbl.create 16\nlet f a b = compare a b\n"

let test_allowlist_suppression () =
  let findings = fake_findings () in
  Alcotest.(check int) "fixture has two findings" 2 (List.length findings);
  let al =
    entry_exn "# documented shared cache\nr4-global-mutable lib/offline/fake.ml\n"
  in
  let a = Allowlist.apply al findings in
  Alcotest.(check int) "one suppressed" 1 (List.length a.Allowlist.suppressed);
  Alcotest.(check int) "one live" 1 (List.length a.Allowlist.live);
  Alcotest.(check int) "none stale" 0 (List.length a.Allowlist.stale);
  (match a.Allowlist.live with
  | [ f ] -> Alcotest.(check string) "r1 stays live" "r1-poly-compare" f.Finding.rule
  | _ -> Alcotest.fail "expected exactly one live finding");
  (* line-scoped entry only suppresses its line *)
  let al_line1 =
    entry_exn "# documented shared cache\nr4-global-mutable lib/offline/fake.ml:1\n"
  in
  let a1 = Allowlist.apply al_line1 findings in
  Alcotest.(check int) "line 1 entry suppresses" 1
    (List.length a1.Allowlist.suppressed);
  let al_line9 =
    entry_exn "# documented shared cache\nr4-global-mutable lib/offline/fake.ml:9\n"
  in
  let a9 = Allowlist.apply al_line9 findings in
  Alcotest.(check int) "wrong line suppresses nothing" 0
    (List.length a9.Allowlist.suppressed);
  Alcotest.(check int) "wrong-line entry is stale" 1
    (List.length a9.Allowlist.stale)

(* --- interprocedural rules (r11–r14) ----------------------------------- *)

let effects_of sources = Effects.infer (Index.of_sources sources)

let rules_of_findings fs = List.map (fun f -> f.Finding.rule) fs

let has_rule rule fs = List.mem rule (rules_of_findings fs)

(* Allocation sites as the index counts them, behind a hot root. *)
let hot_sites body =
  List.map
    (fun f -> (f.Finding.line, f.Finding.col))
    (Rules.hot_alloc (effects_of [ ("lib/serve/engine.ml", body) ]))

(* R11: an allocation two calls away from a hot root is visible; the same
   allocation in an unreachable module is not.  A closure is one site
   however curried, and one built in a loop body on a hot path is r11's
   like any other closure there. *)
let test_r11 () =
  let flagged =
    Rules.hot_alloc
      (effects_of
         [
           ("lib/serve/engine.ml", "let ingest t e = Helper.build t e\n");
           ("lib/serve/helper.ml", "let build t e = (t, e)\n");
         ])
  in
  Alcotest.(check bool)
    "tuple in a callee of Engine.ingest flags" true
    (has_rule "r11-hot-alloc" flagged);
  Alcotest.(check bool)
    "finding lands on the allocation site, not the root" true
    (List.exists
       (fun f -> String.equal f.Finding.file "lib/serve/helper.ml")
       flagged);
  let clean =
    Rules.hot_alloc
      (effects_of
         [
           ("lib/serve/engine.ml", "let ingest t e = Helper.build t e\n");
           ("lib/serve/helper.ml", "let build t e = t + e\n");
           (* allocates, but nothing hot reaches it *)
           ("lib/serve/cold.ml", "let report x = [ x ]\n");
         ])
  in
  Alcotest.(check int) "non-allocating callee is clean" 0 (List.length clean);
  (* the solver step is a hot root in its own right: the engine reaches
     it only through the Online record, which the index cannot see *)
  let solver =
    Rules.hot_alloc
      (effects_of
         [ ("lib/core/dynamic_alg.ml", "let serve t e = ignore [ t ]; e\n") ])
  in
  Alcotest.(check bool)
    "Dynamic_alg.serve is a hot root" true
    (has_rule "r11-hot-alloc" solver);
  (* --hot-root adds a root by display name; unnamed, the same body is
     cold *)
  let shard = [ ("lib/core/solver.ml", "let shard arr = [ arr ]\n") ] in
  Alcotest.(check bool)
    "--hot-root extra is a root" true
    (has_rule "r11-hot-alloc"
       (Rules.hot_alloc
          (Effects.infer ~extra_hot_roots:[ "Solver.shard" ]
             (Index.of_sources shard))));
  Alcotest.(check int) "without --hot-root it is cold" 0
    (List.length (Rules.hot_alloc (effects_of shard)));
  (* top-level constants run at module init, not per call *)
  let const =
    Rules.hot_alloc
      (effects_of
         [
           ("lib/serve/engine.ml", "let ingest t e = ignore Helper.table; t + e\n");
           ("lib/serve/helper.ml", "let table = Hashtbl.create 8\n");
         ])
  in
  Alcotest.(check int) "constant initializer is not a per-call alloc" 0
    (List.length const);
  Alcotest.(check int) "closure built in a for body on a hot path" 1
    (List.length
       (hot_sites
          "let ingest t es =\n\
          \  for _ = 1 to 2 do Array.iter (fun e -> ignore (t + e)) es done\n"));
  Alcotest.(check int) "closure built in a while body on a hot path" 1
    (List.length
       (hot_sites
          "let ingest xs = while !xs > 0 do ignore (fun x -> x) done\n"));
  Alcotest.(check int)
    "curried closure is one finding, not one per parameter" 1
    (List.length
       (hot_sites
          "let ingest n = for _ = 0 to n do ignore (fun a b c -> a + b + c) done\n"));
  Alcotest.(check int) "the same loop off the hot path is clean" 0
    (List.length
       (Rules.hot_alloc
          (effects_of
             [
               ( "lib/serve/cold.ml",
                 "let f es = for _ = 1 to 2 do Array.iter (fun e -> ignore e) es done\n"
               );
             ])))

(* A ref that only [!], [:=], [incr] and [decr] touch, outside every
   closure, is a mutable local: no allocation.  One that escapes — is
   returned, passed on, or captured by a closure — is a heap cell. *)
let test_r11_local_refs () =
  Alcotest.(check (list (pair int int)))
    "loop-local refs are clean" []
    (hot_sites
       "let ingest a =\n\
       \  let i = ref 0 and acc = ref 0 in\n\
       \  while !i < Array.length a do\n\
       \    acc := !acc + a.(!i);\n\
       \    incr i\n\
       \  done;\n\
       \  decr acc;\n\
       \  !acc\n");
  Alcotest.(check (list (pair int int)))
    "a returned ref is flagged" [ (1, 23) ]
    (hot_sites "let ingest x = let r = ref x in incr r; r\n");
  Alcotest.(check (list (pair int int)))
    "a ref passed to a call is flagged" [ (1, 23) ]
    (hot_sites "let ingest x = let r = ref x in ignore r; 0\n");
  Alcotest.(check (list (pair int int)))
    "a ref captured by a closure is flagged, with the closure"
    [ (1, 23); (1, 42) ]
    (hot_sites
       "let ingest x = let r = ref x in List.iter (fun y -> r := y) [];\n\
       \  !r\n");
  Alcotest.(check (list (pair int int)))
    "the init expression is still scanned" [ (1, 27) ]
    (hot_sites "let ingest x = let r = ref (x, x) in !r\n")

(* A name bound twice in one file is two definitions: both are analysed,
   and each site is reported once. *)
let test_shadowed_definitions () =
  let sources =
    [
      ("lib/serve/engine.ml", "let ingest t e = Helper.build t e\n");
      ( "lib/serve/helper.ml",
        "let build t e = (t, e)\nlet build t e = ignore [ t ]; e\n" );
    ]
  in
  let ids =
    List.map
      (fun (n : Index.node) -> n.Index.id)
      (Index.nodes (Index.of_sources sources))
  in
  Alcotest.(check (list string))
    "the earlier binding gets an @line id"
    [
      "lib/serve/engine.ml#ingest";
      "lib/serve/helper.ml#build";
      "lib/serve/helper.ml#build@1";
    ]
    ids;
  Alcotest.(check (list (pair string int)))
    "both definitions' sites, each once"
    [ ("lib/serve/helper.ml", 1); ("lib/serve/helper.ml", 2) ]
    (List.map
       (fun f -> (f.Finding.file, f.Finding.line))
       (List.sort Finding.compare (Rules.hot_alloc (effects_of sources))))

(* R12: unhandled partiality reachable from the serve path flags; a
   handler on the path masks it. *)
let test_r12 () =
  let partial src =
    Rules.transitive_partial (effects_of [ ("lib/serve/net.ml", src) ])
  in
  Alcotest.(check bool)
    "Hashtbl.find behind handle_req flags" true
    (has_rule "r12-transitive-partial"
       (partial
          "let pick t = Hashtbl.find t 0\nlet handle_req conn = pick conn\n"));
  Alcotest.(check int) "a try on the path is the named handler" 0
    (List.length
       (partial
          "let pick t = Hashtbl.find t 0\n\
           let handle_req conn = try pick conn with Not_found -> 0\n"));
  Alcotest.(check int) "List.hd on the path is r3's, not r12's" 0
    (List.length
       (partial "let pick l = List.hd l\nlet handle_req conn = pick conn\n"));
  Alcotest.(check int) "partiality off the serve path is clean" 0
    (List.length
       (Rules.transitive_partial
          (effects_of
             [ ("lib/serve/util2.ml", "let pick t = Hashtbl.find t 0\n") ])))

(* R13: an exposed comparator with no test reference flags; a qualified
   test reference covers it; a bare stdlib-colliding name does not. *)
let test_r13 () =
  let index =
    Index.of_sources
      [
        ( "lib/ring/seg.mli",
          "val compare : int -> int -> int\nval equal_arc : int -> int -> bool\n"
        );
      ]
  in
  let tests ml = Index.of_sources [ ("test/test_seg.ml", ml) ] in
  let flagged =
    Rules.comparator_coverage ~index
      ~tests:(tests "let () = ignore (Seg.compare 1 2)\n")
  in
  Alcotest.(check (list string))
    "uncovered equal_arc flags, covered compare does not"
    [ "r13-comparator-coverage" ]
    (rules_of_findings flagged);
  Alcotest.(check bool)
    "the finding names equal_arc" true
    (List.exists
       (fun f -> contains_sub ~sub:"equal_arc" f.Finding.message)
       flagged);
  let bare =
    Rules.comparator_coverage ~index
      ~tests:(tests "let () = ignore (compare 1 2); ignore (Seg.equal_arc 1 2)\n")
  in
  Alcotest.(check (list string))
    "bare stdlib-colliding compare does not cover Seg.compare"
    [ "r13-comparator-coverage" ]
    (rules_of_findings bare)

(* R14: an exposed value that nothing outside its module references
   flags, whether nothing uses it or only its own module does; a
   reference from another lib module (through a local module alias, and
   to an external, which no call edge reaches), from a sibling
   perfbench/ or examples/ file (the latter under a local open), or from
   test/ (through a module alias) clears it. *)
let test_r14 () =
  let index =
    Index.of_sources
      [
        ( "lib/ring/seg.mli",
          "val dead : int -> int\nval inner : int -> int\n\
           val shared : int -> int\nval benched : int -> int\n\
           val shown : int -> int\nval tested : int -> int\n\
           external stamp : unit -> int = \"seg_stamp\"\n" );
        ( "lib/ring/seg.ml",
          "let dead x = x\nlet inner x = x + 1\nlet outer x = inner x\n\
           let shared x = x\nlet benched x = x\nlet shown x = x\n\
           let tested x = x\nexternal stamp : unit -> int = \"seg_stamp\"\n" );
        ( "lib/core/user.ml",
          "let f x = let module S = Seg in S.shared x + Seg.stamp ()\n" );
      ]
  in
  let evidence =
    Index.of_sources
      [
        ("perfbench/w_seg.ml", "let run () = Seg.benched 1\n");
        ("examples/demo.ml", "let () = ignore Rbgp_ring.Seg.(shown 2)\n");
        ( "test/test_seg.ml",
          "module S = Rbgp_ring.Seg\nlet () = ignore (S.tested 3)\n" );
      ]
  in
  let flagged = Rules.unused_export ~index ~evidence in
  Alcotest.(check (list (pair string int)))
    "dead (line 1) and internal-only inner (line 2) flag, nothing else"
    [ ("r14-unused-export", 1); ("r14-unused-export", 2) ]
    (List.map (fun f -> (f.Finding.rule, f.Finding.line)) flagged)

(* r14 on disk: an untested, unreferenced comparator is r13's alone (one
   rule id per site), and linting a directory with no sibling project
   directory beside it leaves r13 and r14 silent. *)
let test_r14_siblings () =
  let root = Filename.temp_dir "rbgp_lint_r14" "" in
  let write rel contents =
    let path = Filename.concat root rel in
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdirs (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
  in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> remove root)
    (fun () ->
      write "lib/ring/seg.mli"
        "val compare_arc : int -> int -> int\nval dead : int -> int\n";
      write "lib/ring/seg.ml"
        "let compare_arc a b = Int.compare a b\nlet dead x = x\n";
      write "test/test_seg.ml" "let () = ()\n";
      let rules dirs =
        List.filter_map
          (fun (f : Finding.t) ->
            match f.Finding.rule with
            | ("r13-comparator-coverage" | "r14-unused-export") as r ->
                Some (r, f.Finding.line)
            | _ -> None)
          (Engine.run ~dirs ()).Engine.live
      in
      Alcotest.(check (list (pair string int)))
        "comparator is r13's, the dead value r14's"
        [ ("r13-comparator-coverage", 1); ("r14-unused-export", 2) ]
        (rules [ Filename.concat root "lib" ]);
      Alcotest.(check (list (pair string int)))
        "no sibling directory: r13 and r14 silent" []
        (rules [ Filename.concat root "lib/ring" ]))

(* Module expressions are walked too: a value referenced only inside a
   functor argument, or only inside [(val ...)], is neither an r14
   finding nor missing from the call graph, and a hot root bound inside
   a functor argument reaches what it calls. *)
let test_module_exprs () =
  let index =
    Index.of_sources
      [
        ("lib/core/seg.mli", "val mix : int -> int\nval src : Logs.src\n");
        ("lib/core/seg.ml", "let mix x = [ x ]\nlet src = Logs.Src.create \"seg\"\n");
        ( "lib/core/user.ml",
          "module H = Hashtbl.Make (struct\n\
          \  type t = int\n\
          \  let equal = Int.equal\n\
          \  let hash x = List.length (Seg.mix x)\n\
           end)\n\
           module Log = (val Logs.src_log Seg.src)\n" );
      ]
  in
  Alcotest.(check int) "no r14 finding" 0
    (List.length (Rules.unused_export ~index ~evidence:(Index.of_sources [])));
  let fx = Effects.infer ~extra_hot_roots:[ "User.H.hash" ] index in
  let callers id =
    List.filter
      (fun from ->
        match Effects.info fx from with
        | Some i ->
            List.exists (fun (e : Effects.edge) -> String.equal e.Effects.to_id id) i.Effects.edges
        | None -> false)
      (Effects.node_ids fx)
  in
  Alcotest.(check (list string)) "functor argument calls Seg.mix"
    [ "lib/core/user.ml#H.hash" ] (callers "lib/core/seg.ml#mix");
  Alcotest.(check (list string)) "(val ...) reads Seg.src"
    [ "lib/core/user.ml#Log._unpack:6" ] (callers "lib/core/seg.ml#src");
  Alcotest.(check (list (pair string int)))
    "the list Seg.mix builds is reachable from User.H.hash"
    [ ("lib/core/seg.ml", 1) ]
    (List.map (fun f -> (f.Finding.file, f.Finding.line)) (Rules.hot_alloc fx))

(* Root reachability across modules: the hot traversal crosses a handled
   call edge (a caught allocation still allocates), the serve traversal
   stops at it, and constant bindings are never entered. *)
let test_reachability () =
  let fx =
    effects_of
      [
        ( "lib/serve/net.ml",
          "let handle_req l = try Alpha.mid l with Not_found -> 0\n\
           let handle_frame l = Alpha.mid l\n" );
        ( "lib/core/alpha.ml",
          "let base l = List.find (fun x -> x > 0) l\n\
           let mid l = base l\n\
           let table = Array.make 4 0\n" );
        ( "lib/core/dynamic_alg.ml",
          "let serve t l = try Alpha.mid l + Alpha.table.(t) with Not_found -> 0\n"
        );
      ]
  in
  let id name = "lib/core/alpha.ml#" ^ name in
  Alcotest.(check (option string))
    "hot traversal crosses the handler" (Some "Dynamic_alg.serve")
    (Effects.hot_reach fx (id "base"));
  Alcotest.(check (option string))
    "serve traversal reaches base through the unhandled edge"
    (Some "Net.handle_frame")
    (Effects.serve_reach fx (id "base"));
  Alcotest.(check (option string))
    "a constant binding is not entered" None
    (Effects.hot_reach fx (id "table"));
  let handled_only =
    effects_of
      [
        ( "lib/serve/net.ml",
          "let handle_req l = try Alpha.mid l with Not_found -> 0\n" );
        ("lib/core/alpha.ml", "let mid l = List.find (fun x -> x > 0) l\n");
      ]
  in
  Alcotest.(check (option string))
    "serve traversal stops at the handler" None
    (Effects.serve_reach handled_only (id "mid"))

(* A site that two rules could claim carries one rule id: Domain.self is
   r7's (r2 does not repeat it), a catch-all around a Durable write is
   r5's (r9 keeps handlers that bind the exception), and List.hd behind a
   serve root is r3's (r12 keeps the partiality r3 does not see). *)
let test_one_rule_per_site () =
  let sources =
    [
      ("lib/util/fake.ml", "let d () = Domain.self ()\n");
      ( "lib/serve/fake.ml",
        "let f path d = try Durable.atomic_write ~path d with _ -> ()\n" );
      ( "lib/serve/net.ml",
        "let pick l = List.hd l\nlet handle_req conn = pick conn\n" );
    ]
  in
  let fx = effects_of sources in
  let findings =
    List.concat_map (fun (path, src) -> Engine.lint_source ~path src) sources
    @ Rules.hot_alloc fx @ Rules.transitive_partial fx
  in
  let site f = (f.Finding.file, f.Finding.line, f.Finding.col) in
  let sites = List.sort_uniq Stdlib.compare (List.map site findings) in
  Alcotest.(check int) "three sites" 3 (List.length sites);
  List.iter
    (fun s ->
      let rules =
        List.sort_uniq String.compare
          (List.filter_map
             (fun f ->
               if Stdlib.( = ) (site f) s then Some f.Finding.rule else None)
             findings)
      in
      let file, line, col = s in
      Alcotest.(check int)
        (Printf.sprintf "%s:%d:%d has one rule id (%s)" file line col
           (String.concat ", " rules))
        1 (List.length rules))
    sites;
  Alcotest.(check (list string))
    "owned by r7, r5 and r3"
    [ "r3-partial"; "r5-catchall-exn"; "r7-domain-safety" ]
    (List.sort_uniq String.compare (rules_of_findings findings))

(* --explain has long-form text for the interprocedural rules and rejects
   unknown ids. *)
let test_explain () =
  List.iter
    (fun r ->
      match Rules.explain r with
      | Some text ->
          Alcotest.(check bool)
            (r ^ " explanation is substantial") true
            (String.length text > 200)
      | None -> Alcotest.failf "no --explain text for %s" r)
    [
      "r11-hot-alloc";
      "r12-transitive-partial";
      "r13-comparator-coverage";
      "r14-unused-export";
    ];
  Alcotest.(check bool) "every described rule explains" true
    (List.for_all
       (fun (id, _) -> Option.is_some (Rules.explain id))
       Rules.descriptions);
  Alcotest.(check bool) "unknown rule is None" true
    (Option.is_none (Rules.explain "r99-bogus"))

(* --- self-lint ---------------------------------------------------------- *)

(* The repository's own sources must be clean under the checked-in
   allowlist.  The test runs from the build sandbox (test/), so the tree
   is reached via ".." — findings still match the allowlist because paths
   are normalized and matched by suffix. *)
let test_self_lint () =
  (* dune runtest runs from the sandboxed test/ dir (tree at ".."); dune
     exec runs from the workspace root (tree at ".") *)
  let root =
    if Sys.file_exists "../lint/allowlist.txt" then ".."
    else if Sys.file_exists "lint/allowlist.txt" then "."
    else Alcotest.fail "cannot locate the repository tree"
  in
  let under d = Filename.concat root d in
  let allowlist =
    match Allowlist.load ~path:(under "lint/allowlist.txt") with
    | Ok al -> al
    | Error e -> Alcotest.failf "checked-in allowlist failed to parse: %s" e
  in
  let outcome =
    Engine.run ~allowlist
      ~dirs:[ under "lib"; under "bin"; under "bench" ]
      ()
  in
  Alcotest.(check bool) "scanned a real tree" true (outcome.Engine.files > 50);
  (match outcome.Engine.live with
  | [] -> ()
  | l ->
      Alcotest.failf "repository is not lint-clean:\n%s"
        (String.concat "\n" (List.map Finding.to_text l)));
  Alcotest.(check int) "no stale allowlist entries" 0
    (List.length outcome.Engine.stale)

(* --- SARIF bytes -------------------------------------------------------- *)

(* The SARIF report byte for byte on a fixed outcome: a whole-file
   finding has no region, a column converts from 0-based to 1-based, a
   suppressed result carries its justification, and a message with a
   quote, a backslash, a newline and a control byte is escaped.  The
   rule descriptors between [head] and [results] follow
   Rules.descriptions. *)
let test_sarif_bytes () =
  let whole =
    Finding.make ~rule:"r6-missing-mli" ~file:"lib/core/x.ml" ~line:0 ~col:0
      "no mli"
  in
  let escaped =
    Finding.make ~rule:"r1-poly-compare" ~file:"lib/mts/mts.ml" ~line:7
      ~col:0 "say \"hi\" \\ then\nnext\001"
  in
  let site =
    Finding.make ~rule:"r11-hot-alloc" ~file:"lib/util/pool.ml" ~line:35
      ~col:31 "allocates"
  in
  let entry =
    {
      Allowlist.rule = "r11-hot-alloc";
      path = "lib/util/pool.ml";
      line = None;
      justification = "amortized per batch";
      source_line = 1;
    }
  in
  let outcome =
    {
      Engine.files = 3;
      live = [ whole; escaped ];
      suppressed = [ (site, entry) ];
      stale = [];
    }
  in
  let head =
    {|{"version":"2.1.0","$schema":"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json","runs":[{"tool":{"driver":{"name":"rbgp-lint","informationUri":"DESIGN.md","rules":[|}
  in
  let rules =
    String.concat ","
      (List.map
         (fun (id, desc) ->
           Ljson.to_string
             (Ljson.Obj
                [
                  ("id", Ljson.Str id);
                  ("shortDescription", Ljson.Obj [ ("text", Ljson.Str desc) ]);
                ]))
         Rules.descriptions)
  in
  let results =
    String.concat ""
      [
        {|]}},"results":[|};
        {|{"ruleId":"r6-missing-mli","level":"error","message":{"text":"no mli"},|};
        {|"locations":[{"physicalLocation":{"artifactLocation":{"uri":"lib/core/x.ml"}}}]},|};
        {|{"ruleId":"r1-poly-compare","level":"error",|};
        {|"message":{"text":"say \"hi\" \\ then\nnext\u0001"},|};
        {|"locations":[{"physicalLocation":{"artifactLocation":{"uri":"lib/mts/mts.ml"},|};
        {|"region":{"startLine":7,"startColumn":1}}}]},|};
        {|{"ruleId":"r11-hot-alloc","level":"error","message":{"text":"allocates"},|};
        {|"locations":[{"physicalLocation":{"artifactLocation":{"uri":"lib/util/pool.ml"},|};
        {|"region":{"startLine":35,"startColumn":32}}}],|};
        {|"suppressions":[{"kind":"external","justification":"amortized per batch"}]}|};
        {|]}]}|};
      ]
  in
  Alcotest.(check string) "SARIF bytes" (head ^ rules ^ results)
    (Sarif.to_string outcome)

(* --- engine-level behaviors -------------------------------------------- *)

let repo_root () =
  if Sys.file_exists "../lint/allowlist.txt" then ".."
  else if Sys.file_exists "lint/allowlist.txt" then "."
  else Alcotest.fail "cannot locate the repository tree"

(* Overlapping directories must not double-count files (the baseline and
   finding counts would silently double). *)
let test_scan_dirs_dedupe () =
  let root = repo_root () in
  let under d = Filename.concat root d in
  let once = Engine.scan_dirs [ under "lib" ] in
  let overlap = Engine.scan_dirs [ under "lib"; under "lib/serve" ] in
  Alcotest.(check int) "overlapping dirs scan each file once"
    (List.length once) (List.length overlap);
  Alcotest.(check bool) "same file set" true
    (List.equal String.equal once overlap)

(* Satellite: every founding allowlist entry still matches a real finding
   — entries that stop matching must be deleted, not accumulate. *)
let test_founding_entries_live () =
  let root = repo_root () in
  let under d = Filename.concat root d in
  let allowlist =
    match Allowlist.load ~path:(under "lint/allowlist.txt") with
    | Ok al -> al
    | Error e -> Alcotest.failf "allowlist: %s" e
  in
  let outcome =
    Engine.run ~allowlist ~dirs:[ under "lib"; under "bin"; under "bench" ] ()
  in
  let used =
    List.map (fun (_, e) -> Allowlist.entry_id e) outcome.Engine.suppressed
  in
  List.iter
    (fun e ->
      let id = Allowlist.entry_id e in
      Alcotest.(check bool)
        (Printf.sprintf "entry %S suppresses at least one finding" id)
        true
        (List.mem id used))
    allowlist

(* --rules narrows the run to the selected rules (parse-error excepted)
   and narrows the allowlist with it. *)
(* The CLI accepts both full rule ids and bare rNN prefixes, and the
   prefix only matches whole numeric components (r1 must not select
   r11). *)
let test_rules_shorthand () =
  let parse spec =
    match Rbgp_lint.Cli.parse_rules_filter (Some spec) with
    | Ok (Some ids) -> ids
    | Ok None -> Alcotest.fail "spec parsed to no filter"
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list string))
    "r11,r13 resolves to the full ids"
    [ "r11-hot-alloc"; "r13-comparator-coverage" ]
    (parse "r11,r13");
  Alcotest.(check (list string))
    "r1 selects poly-compare, not r11"
    [ "r1-poly-compare" ] (parse "r1");
  Alcotest.(check (list string))
    "full ids still accepted"
    [ "r12-transitive-partial" ]
    (parse "r12-transitive-partial");
  (match Rbgp_lint.Cli.parse_rules_filter (Some "r99") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule accepted");
  match Rbgp_lint.Cli.parse_rules_filter None with
  | Ok None -> ()
  | _ -> Alcotest.fail "absent spec must mean all rules"

let test_rules_filter () =
  let root = repo_root () in
  let under d = Filename.concat root d in
  let outcome =
    Engine.run
      ~rules:[ "r11-hot-alloc"; "r13-comparator-coverage" ]
      ~dirs:[ under "lib"; under "bin"; under "bench" ]
      ()
  in
  Alcotest.(check bool) "filtered run has findings to report" true
    (List.length outcome.Engine.live > 0);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "finding %s is from a selected rule" f.Finding.rule)
        true
        (List.mem f.Finding.rule
           [ "r11-hot-alloc"; "r13-comparator-coverage"; "parse-error" ]))
    outcome.Engine.live

(* The effect graph dump is a pure function of the sources: two runs are
   byte-identical. *)
let test_graph_determinism () =
  let root = repo_root () in
  let dirs = [ Filename.concat root "lib" ] in
  let a = Ljson.to_string (Engine.graph ~dirs ()) in
  let b = Ljson.to_string (Engine.graph ~dirs ()) in
  Alcotest.(check bool) "graph dump is byte-identical across runs" true
    (String.equal a b);
  Alcotest.(check bool) "graph dump is non-trivial" true
    (String.length a > 10_000)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "r1 polymorphic compare" `Quick test_r1;
          Alcotest.test_case "r2 nondeterminism" `Quick test_r2;
          Alcotest.test_case "r3 partial functions" `Quick test_r3;
          Alcotest.test_case "r4 top-level mutable state" `Quick test_r4;
          Alcotest.test_case "r5 catch-all handlers" `Quick test_r5;
          Alcotest.test_case "r6 missing interfaces" `Quick test_r6;
          Alcotest.test_case "r7 domain safety" `Quick test_r7;
          Alcotest.test_case "r9 durability hygiene" `Quick test_r9;
          Alcotest.test_case "r10 net safety" `Quick test_r10;
          Alcotest.test_case "r11 hot-path allocation" `Quick test_r11;
          Alcotest.test_case "r11 local refs" `Quick test_r11_local_refs;
          Alcotest.test_case "shadowed definitions" `Quick
            test_shadowed_definitions;
          Alcotest.test_case "r12 transitive partiality" `Quick test_r12;
          Alcotest.test_case "r13 comparator coverage" `Quick test_r13;
          Alcotest.test_case "r14 unused exports" `Quick test_r14;
          Alcotest.test_case "r14 evidence on disk" `Quick test_r14_siblings;
          Alcotest.test_case "functor arguments and (val ...)" `Quick
            test_module_exprs;
          Alcotest.test_case "root reachability" `Quick test_reachability;
          Alcotest.test_case "one rule id per site" `Quick
            test_one_rule_per_site;
          Alcotest.test_case "--explain texts" `Quick test_explain;
          Alcotest.test_case "parse errors are findings" `Quick
            test_parse_error;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "parse + mandatory justification" `Quick
            test_allowlist_parse;
          Alcotest.test_case "suppression and line scoping" `Quick
            test_allowlist_suppression;
        ] );
      ( "reporter",
        [
          Alcotest.test_case "SARIF shape + suppression" `Quick
            test_sarif_bytes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "scan_dirs dedupes overlapping dirs" `Quick
            test_scan_dirs_dedupe;
          Alcotest.test_case "founding allowlist entries all live" `Quick
            test_founding_entries_live;
          Alcotest.test_case "--rules filters findings and allowlist" `Quick
            test_rules_filter;
          Alcotest.test_case "--rules accepts rNN shorthand" `Quick
            test_rules_shorthand;
          Alcotest.test_case "graph dump is deterministic" `Quick
            test_graph_determinism;
        ] );
      ( "self",
        [ Alcotest.test_case "repository is lint-clean" `Quick test_self_lint ]
      );
    ]
