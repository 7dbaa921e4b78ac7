(* Tests for the Section-4 machinery: the slicing procedure (interval
   growth, deactivations, event stream), the clustering procedure
   (structural consistency, the cluster-size lemmas), the scheduling
   procedure (rebalancing restores the load bound), and the composed
   static-model algorithm (Lemma 4.13 capacity, strictness, determinism).

   Most properties are checked *during* full runs of the composed
   algorithm: the clustering invariants have to hold after every request,
   not just at the end.  The composed algorithm is also checked request by
   request against its dense reference (see [Dense_slicing] below). *)

module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost
module Segment = Rbgp_ring.Segment
module Trace = Rbgp_ring.Trace
module Simulator = Rbgp_ring.Simulator
module Slicing = Rbgp_core.Slicing
module Clustering = Rbgp_core.Clustering
module Scheduling = Rbgp_core.Scheduling
module Static_alg = Rbgp_core.Static_alg
module Assignment = Rbgp_ring.Assignment
module Online = Rbgp_ring.Online
module Workloads = Rbgp_workloads.Workloads
module Rng = Rbgp_util.Rng
module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin
module Binc = Rbgp_util.Binc

(* --- slicing -------------------------------------------------------- *)

let test_slicing_initial () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let s = Slicing.create inst (Rng.create 1) in
  Alcotest.(check (list int)) "one interval per initial cut" [ 7; 15; 23; 31 ]
    (Slicing.initial_cuts s);
  Alcotest.(check int) "interval count" 4 (Slicing.interval_count s);
  List.iter
    (fun (id, cut) ->
      Alcotest.(check int) (Printf.sprintf "cut %d at center" id) cut
        (List.nth (Slicing.initial_cuts s) id))
    (Slicing.active_cuts s)

let test_slicing_requires_split () =
  let inst = Instance.make ~n:4 ~ell:1 ~k:4 () in
  Alcotest.check_raises "n <= k rejected"
    (Invalid_argument "Slicing.create: requires n > k") (fun () ->
      ignore (Slicing.create inst (Rng.create 0)))

let drive_slicing ~n ~ell ~steps ~seed =
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create seed in
  let s = Slicing.create inst (Rng.split rng) in
  let events = ref [] in
  for _ = 1 to steps do
    let e = Rng.int rng n in
    events := Slicing.serve s e @ !events
  done;
  (inst, s, List.rev !events)

let test_slicing_cut_inside_interval () =
  let _, s, _ = drive_slicing ~n:48 ~ell:4 ~steps:3_000 ~seed:2 in
  List.iter
    (fun (id, cut) ->
      let seg = Slicing.interval_seg s id in
      Alcotest.(check bool)
        (Printf.sprintf "cut of %d inside its interval" id)
        true
        (Segment.mem seg cut && Segment.mem seg ((cut + 1) mod 48)))
    (Slicing.active_cuts s)

let test_slicing_interval_sizes () =
  let inst, s, _ = drive_slicing ~n:48 ~ell:4 ~steps:3_000 ~seed:3 in
  let k = inst.Instance.k in
  for id = 0 to Slicing.interval_count s - 1 do
    let len = Segment.length (Slicing.interval_seg s id) in
    Alcotest.(check bool)
      (Printf.sprintf "interval %d size %d follows the schedule" id len)
      true
      (len <= k + 1
      && (len = k + 1 || len = 2 lsl (Slicing.interval_rank s id) || len = 2))
  done

let test_slicing_rank_growth () =
  let _, s, _ = drive_slicing ~n:48 ~ell:4 ~steps:5_000 ~seed:4 in
  for id = 0 to Slicing.interval_count s - 1 do
    let len = Segment.length (Slicing.interval_seg s id) in
    let rank = Slicing.interval_rank s id in
    (* each growth step at most doubles: len <= 2^rank * 2 *)
    Alcotest.(check bool) "rank consistent" true (len <= 2 lsl rank)
  done

let test_slicing_event_sanity () =
  let _, _, events = drive_slicing ~n:48 ~ell:4 ~steps:3_000 ~seed:5 in
  List.iter
    (function
      | Slicing.Cut_moved { from_edge; to_edge; dist; _ } ->
          Alcotest.(check bool) "move is a real move" true
            (from_edge <> to_edge && dist > 0)
      | Slicing.Cut_removed { reason; _ } ->
          Alcotest.(check bool) "removal reason is a deactivation" true
            (reason = Slicing.Mono || reason = Slicing.Dominated))
    events

let test_slicing_deactivation_monotone () =
  (* statuses only go Active -> inactive; dominated intervals stay inside
     the interval that dominated them *)
  let inst = Instance.blocks ~n:48 ~ell:4 in
  let rng = Rng.create 6 in
  let s = Slicing.create inst (Rng.split rng) in
  let statuses = Array.make (Slicing.interval_count s) Slicing.Active in
  for _ = 1 to 3_000 do
    let e = Rng.int rng 48 in
    ignore (Slicing.serve s e);
    Array.iteri
      (fun id prev ->
        let cur = Slicing.interval_status s id in
        if prev <> Slicing.Active then
          Alcotest.(check bool) "stays deactivated" true (cur = prev);
        statuses.(id) <- cur)
      statuses
  done

let test_slicing_request_counts () =
  let inst = Instance.blocks ~n:16 ~ell:2 in
  let s = Slicing.create inst (Rng.create 7) in
  ignore (Slicing.serve s 3);
  ignore (Slicing.serve s 3);
  ignore (Slicing.serve s 9);
  (* the snapshot opens with the per-edge request counts *)
  let buf = Buffer.create 256 in
  Slicing.save buf s;
  let x = Array.make 16 0.0 in
  Binc.read_counts (Binc.reader (Buffer.contents buf)) x;
  Alcotest.(check (float 0.0)) "x(3)" 2.0 x.(3);
  Alcotest.(check (float 0.0)) "x(9)" 1.0 x.(9);
  Alcotest.(check (float 0.0)) "x(0)" 0.0 x.(0)

(* --- clustering ------------------------------------------------------ *)

let test_clustering_create () =
  let inst = Instance.blocks ~n:32 ~ell:4 in
  let c = Clustering.create inst in
  (match Clustering.check_consistency c with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "initial cuts live" 4 (List.length (Clustering.cut_edges c));
  let out = Array.make 32 (-1) in
  Clustering.assignment_into c out;
  Alcotest.(check (array int)) "initial assignment preserved"
    inst.Instance.initial out

let test_clustering_single_server_ring () =
  (* degenerate: everything on one server, no cuts *)
  let inst = Instance.make ~n:4 ~ell:2 ~k:4 () in
  let c = Clustering.create inst in
  (match Clustering.check_consistency c with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list int)) "no cuts" [] (Clustering.cut_edges c)

(* drive clustering directly with hand-crafted events to exercise the
   structural paths: boundary move, merge (cut removal), split (a second
   interval's cut arriving at a fresh position), whole-ring collapse and
   re-rooting, duplicate cuts (multiset semantics) *)

let mk_event_move ~from_edge ~to_edge ~dist =
  Rbgp_core.Slicing.Cut_moved { id = 0; from_edge; to_edge; dist }

let mk_event_remove ~edge =
  Rbgp_core.Slicing.Cut_removed { id = 0; edge; reason = Rbgp_core.Slicing.Mono }

let assert_consistent c ctx =
  match Clustering.check_consistency c with
  | Ok () -> ()
  | Error m -> Alcotest.fail (ctx ^ ": " ^ m)

let test_clustering_boundary_move () =
  let inst = Instance.blocks ~n:16 ~ell:2 in
  let c = Clustering.create inst in
  (* initial cuts at 7 and 15; move 7 -> 9: slice [0..7] grows to [0..9] *)
  Clustering.apply_event c (mk_event_move ~from_edge:7 ~to_edge:9 ~dist:2);
  assert_consistent c "after move";
  Alcotest.(check (list int)) "cuts" [ 9; 15 ] (Clustering.cut_edges c);
  Alcotest.(check int) "move cost" 2 (Clustering.move_cost c);
  let out = Array.make 16 (-1) in
  Clustering.assignment_into c out;
  (* processes 8 and 9 joined server 0's slice; the slice is 10/16
     0-colored, majority 0, was in color-0 cluster -> stays *)
  Alcotest.(check int) "p8 on server 0" 0 out.(8);
  Alcotest.(check int) "p9 on server 0" 0 out.(9);
  Alcotest.(check int) "p10 stays on server 1" 1 out.(10)

let test_clustering_merge_to_single_cut () =
  let inst = Instance.blocks ~n:16 ~ell:2 in
  let c = Clustering.create inst in
  Clustering.apply_event c (mk_event_remove ~edge:7);
  assert_consistent c "after merge";
  Alcotest.(check (list int)) "one cut left" [ 15 ] (Clustering.cut_edges c);
  (* both halves had size 8: the merge charges min(8,8) = 8 *)
  Alcotest.(check int) "merge cost" 8 (Clustering.merge_cost c);
  Alcotest.(check int) "single slice of the whole ring" 1
    (List.length (Clustering.slices c))

let test_clustering_whole_ring_collapse () =
  (* removing every cut collapses the structure into a single whole-ring
     slice; the assignment keeps every process on that slice's server *)
  let inst = Instance.blocks ~n:16 ~ell:2 in
  let c = Clustering.create inst in
  Clustering.apply_event c (mk_event_remove ~edge:7);
  Clustering.apply_event c (mk_event_remove ~edge:15);
  assert_consistent c "no cuts";
  Alcotest.(check (list int)) "no cuts" [] (Clustering.cut_edges c);
  Alcotest.(check int) "one slice" 1 (List.length (Clustering.slices c));
  let out = Array.make 16 (-1) in
  Clustering.assignment_into c out;
  Alcotest.(check bool) "all on one server" true
    (Array.for_all (( = ) out.(0)) out)

let test_clustering_duplicate_cuts () =
  let inst = Instance.blocks ~n:16 ~ell:2 in
  let c = Clustering.create inst in
  (* a second interval's cut moves onto edge 7 (already cut), then the
     first leaves: the position must stay a live cut throughout *)
  Clustering.apply_event c (mk_event_move ~from_edge:15 ~to_edge:7 ~dist:8);
  assert_consistent c "duplicate created";
  Alcotest.(check (list int)) "both cuts collapse to one position" [ 7 ]
    (Clustering.cut_edges c);
  Clustering.apply_event c (mk_event_move ~from_edge:7 ~to_edge:11 ~dist:4);
  assert_consistent c "one copy moved away";
  Alcotest.(check (list int)) "positions 7 and 11 live" [ 7; 11 ]
    (Clustering.cut_edges c)

let test_clustering_singleton_birth () =
  (* shrink a slice until it loses its 3/4 majority: it must leave the
     color cluster and become a singleton (free) *)
  let inst = Instance.blocks ~n:16 ~ell:2 in
  let c = Clustering.create inst in
  (* move cut 7 far into server 1's block: slice [0..13] is 8/14 zeros -
     majority but not 3/4 - parent was color-0 cluster, so it stays;
     then move past the majority threshold *)
  Clustering.apply_event c (mk_event_move ~from_edge:7 ~to_edge:13 ~dist:6);
  assert_consistent c "majority kept";
  let kinds =
    List.map (fun (_, cl) -> cl.Clustering.kind) (Clustering.slices c)
  in
  Alcotest.(check bool) "still color clusters" true
    (List.for_all (function Clustering.Color _ -> true | _ -> false) kinds);
  (* now the other boundary: make a slice with no majority *)
  Clustering.apply_event c (mk_event_move ~from_edge:15 ~to_edge:5 ~dist:6);
  assert_consistent c "after second move";
  let singleton_count =
    List.length
      (List.filter
         (fun (cl : Clustering.cluster) -> cl.Clustering.kind = Clustering.Singleton)
         (Clustering.clusters c))
  in
  Alcotest.(check bool) "a singleton was born" true (singleton_count >= 1)

(* qcheck: random valid event streams keep clustering consistent.  We use
   the real slicing procedure as the event source but on random instances
   and traces, which covers the product space far beyond the fixed-workload
   runs below. *)
let test_clustering_random_streams =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"clustering consistent on random slicing streams"
       QCheck2.Gen.(
         oneofl [ (16, 2); (24, 3); (32, 4) ] >>= fun (n, ell) ->
         int_range 0 1000 >>= fun seed ->
         list_size (int_range 50 300) (int_range 0 (n - 1)) >|= fun es ->
         (n, ell, seed, Array.of_list es))
       (fun (n, ell, seed, es) ->
         let inst = Instance.blocks ~n ~ell in
         let s = Slicing.create inst (Rng.create seed) in
         let c = Clustering.create inst in
         Array.for_all
           (fun e ->
             let events = Slicing.serve s e in
             List.iter (Clustering.apply_event c) events;
             match Clustering.check_consistency c with
             | Ok () -> true
             | Error _ -> false)
           es))

(* run the full static algorithm, checking clustering invariants and
   cluster-size lemmas after every request *)
let run_static_checked ~n ~ell ~steps ~seed ~trace_of =
  let inst = Instance.blocks ~n ~ell in
  let k = inst.Instance.k in
  let rng = Rng.create seed in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
  let online = Static_alg.online alg in
  let trace = trace_of inst (Rng.split rng) in
  let delta_bar = Static_alg.delta_bar alg in
  let singleton_bound =
    (3.0 +. (2.0 *. (1.0 -. delta_bar) /. delta_bar)) *. float_of_int k
  in
  let check_invariants step =
    let c = Static_alg.clustering alg in
    (match Clustering.check_consistency c with
    | Ok () -> ()
    | Error m -> Alcotest.fail (Printf.sprintf "step %d: %s" step m));
    List.iter
      (fun (cl : Clustering.cluster) ->
        match cl.Clustering.kind with
        | Clustering.Color _ ->
            (* Lemma 4.12 *)
            if cl.Clustering.size > 2 * k then
              Alcotest.fail
                (Printf.sprintf "step %d: color cluster size %d > 2k" step
                   cl.Clustering.size)
        | Clustering.Singleton ->
            (* Corollary 4.10 *)
            if float_of_int cl.Clustering.size > singleton_bound +. 1e-9 then
              Alcotest.fail
                (Printf.sprintf "step %d: singleton size %d > bound %.1f" step
                   cl.Clustering.size singleton_bound))
      (Clustering.clusters c)
  in
  let r =
    Simulator.run
      ~on_step:(fun step _ -> if step mod 20 = 0 then check_invariants step)
      inst online trace ~steps
  in
  check_invariants steps;
  (inst, alg, r)

let test_static_invariants_uniform () =
  ignore
    (run_static_checked ~n:64 ~ell:4 ~steps:4_000 ~seed:11
       ~trace_of:(fun inst rng ->
         Rbgp_workloads.Workloads.uniform ~n:inst.Instance.n ~steps:4_000 rng))

let test_static_invariants_rotating () =
  ignore
    (run_static_checked ~n:64 ~ell:4 ~steps:4_000 ~seed:12
       ~trace_of:(fun inst rng ->
         Rbgp_workloads.Workloads.rotating ~n:inst.Instance.n ~steps:4_000 rng))

let test_static_invariants_zipf () =
  ignore
    (run_static_checked ~n:96 ~ell:6 ~steps:4_000 ~seed:13
       ~trace_of:(fun inst rng ->
         Rbgp_workloads.Workloads.zipf ~n:inst.Instance.n ~steps:4_000 rng))

let test_static_invariants_adversarial () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let rng = Rng.create 14 in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
  let r =
    Simulator.run inst (Static_alg.online alg)
      (Rbgp_workloads.Workloads.adversary_cut_chaser ~n:64)
      ~steps:4_000
  in
  Alcotest.(check int) "no violations under the chaser" 0
    r.Simulator.capacity_violations;
  match Clustering.check_consistency (Static_alg.clustering alg) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* --- static algorithm end-to-end ------------------------------------- *)

let test_static_load_bound () =
  let _, _, r =
    run_static_checked ~n:128 ~ell:8 ~steps:6_000 ~seed:15
      ~trace_of:(fun inst rng ->
        Rbgp_workloads.Workloads.hotspot ~n:inst.Instance.n ~steps:6_000 rng)
  in
  Alcotest.(check int) "no capacity violations (Lemma 4.13)" 0
    r.Simulator.capacity_violations

let test_static_strict_on_cheap_traces () =
  (* requests that never leave a server's block: the algorithm must pay
     nothing at all (strict competitiveness, Theorem 2.2) *)
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.create 16) in
  let trace = Array.init 2_000 (fun i -> 1 + (i mod 10)) in
  let r =
    Simulator.run inst (Static_alg.online alg) (Trace.fixed trace)
      ~steps:2_000
  in
  Alcotest.(check int) "zero cost on block-internal demand" 0
    (Cost.total r.Simulator.cost)

let test_static_deterministic_by_seed () =
  let run () =
    let inst = Instance.blocks ~n:64 ~ell:4 in
    let rng = Rng.create 99 in
    let alg = Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
    let trace =
      Rbgp_workloads.Workloads.uniform ~n:64 ~steps:2_000 (Rng.split rng)
    in
    let r = Simulator.run inst (Static_alg.online alg) trace ~steps:2_000 in
    (r.Simulator.cost.Cost.comm, r.Simulator.cost.Cost.mig)
  in
  Alcotest.(check (pair int int)) "reproducible" (run ()) (run ())

let test_static_comm_dominated_by_hits () =
  (* every billed communication crosses a live cut, and every live cut
     belongs to an active interval, so simulator comm <= slicing hit cost *)
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let rng = Rng.create 17 in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
  let trace = Rbgp_workloads.Workloads.uniform ~n:64 ~steps:4_000 (Rng.split rng) in
  let r = Simulator.run inst (Static_alg.online alg) trace ~steps:4_000 in
  Alcotest.(check bool) "comm <= slicing hits" true
    (float_of_int r.Simulator.cost.Cost.comm
    <= Slicing.hit_cost (Static_alg.slicing alg) +. 1e-9)

let test_static_cost_counters () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let rng = Rng.create 18 in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.split rng) in
  let trace = Rbgp_workloads.Workloads.zipf ~n:64 ~steps:3_000 (Rng.split rng) in
  ignore (Simulator.run inst (Static_alg.online alg) trace ~steps:3_000);
  let c = Static_alg.clustering alg in
  Alcotest.(check bool) "counters non-negative" true
    (Clustering.move_cost c >= 0
    && Clustering.merge_cost c >= 0
    && Clustering.mono_cost c >= 0
    && Static_alg.rebalance_cost alg >= 0);
  (* slicing's move counter equals clustering's (they see the same events) *)
  Alcotest.(check (float 1e-9)) "move counters agree"
    (Slicing.move_cost (Static_alg.slicing alg))
    (float_of_int (Clustering.move_cost c))

let test_static_augmentation_formula () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.create 19) in
  let eps' = Static_alg.eps' alg in
  Alcotest.(check (float 1e-9)) "eps' = eps/2" 0.25 eps';
  let db = Static_alg.delta_bar alg in
  Alcotest.(check (float 1e-9)) "delta_bar default" (14.0 /. 15.0) db;
  Alcotest.(check bool) "augmentation >= 3" true (Static_alg.augmentation alg >= 3.0)

(* --- the dense reference ----------------------------------------------- *)

(* Slicing as the paper states it, the oracle for Slicing's edge index
   and cached weights: each request scans every interval twice, and every
   active interval holding the requested edge recomputes grad smin_c of
   its edge counts from scratch and follows it through the maximal-stay
   coupling.  Its snapshot has Slicing.save's layout. *)
module Dense_slicing = struct
  type interval = {
    id : int;
    mutable seg : Segment.t;
    mutable status : Slicing.status;
    mutable cut : int;
    mutable dist : Dist.t;
    mutable rank : int;
  }

  type t = {
    inst : Instance.t;
    delta_bar : float;
    rng : Rng.t;
    x : float array;
    intervals : interval array;
    mutable hit : float;
    mutable move : float;
  }

  let n t = t.inst.Instance.n
  let k t = t.inst.Instance.k
  let edge_count_of seg = Segment.length seg - 1

  let local_edge seg e =
    let off = Segment.cw_distance ~n:seg.Segment.n (Segment.first seg) e in
    if off < edge_count_of seg then Some off else None

  let dist_of t seg =
    let m = edge_count_of seg in
    let c = Float.max 1.0 (float_of_int m) in
    let buf = Array.make m 0.0 in
    let first = Segment.first seg in
    let xs = Array.init m (fun j -> t.x.((first + j) mod n t)) in
    Smin.grad_sub_into ~c xs ~lo:0 ~hi:(m - 1) buf;
    Dist.of_grad buf

  let create ~delta_bar (inst : Instance.t) rng =
    let t =
      {
        inst;
        delta_bar;
        rng;
        x = Array.make inst.Instance.n 0.0;
        intervals = [||];
        hit = 0.0;
        move = 0.0;
      }
    in
    let intervals =
      List.mapi
        (fun id e ->
          {
            id;
            seg = Segment.make ~n:inst.Instance.n ~start:e ~len:2;
            status = Slicing.Active;
            cut = e;
            dist = Dist.point 0 ~n:1;
            rank = 0;
          })
        (Instance.initial_cut_edges inst)
    in
    let t = { t with intervals = Array.of_list intervals } in
    Array.iter (fun itv -> itv.dist <- dist_of t itv.seg) t.intervals;
    t

  let min_count t seg =
    let first = Segment.first seg in
    let mn = ref infinity in
    for j = 0 to edge_count_of seg - 1 do
      let v = t.x.((first + j) mod n t) in
      if v < !mn then mn := v
    done;
    !mn

  let is_mono t seg =
    let counts = Array.make t.inst.Instance.ell 0 in
    Segment.iter
      (fun p ->
        let c = t.inst.Instance.initial.(p) in
        counts.(c) <- counts.(c) + 1)
      seg;
    let best = Array.fold_left Stdlib.max 0 counts in
    float_of_int best > t.delta_bar *. float_of_int (Segment.length seg)

  let grow_seg t seg =
    let w = Segment.length seg in
    let desired = Stdlib.min (2 * w) (Stdlib.min (k t + 1) (n t)) in
    let left = (desired - w) / 2 in
    Segment.make ~n:(n t) ~start:(Segment.first seg - left) ~len:desired

  let resample_cut t itv events =
    let new_dist = dist_of t itv.seg in
    let first = Segment.first itv.seg in
    let old_local = local_edge itv.seg itv.cut in
    let new_local =
      match old_local with
      | Some cur when Dist.size itv.dist = Dist.size new_dist ->
          Dist.resample_coupled t.rng ~current:cur ~old_dist:itv.dist
            ~new_dist
      | _ -> Dist.sample t.rng new_dist
    in
    itv.dist <- new_dist;
    let new_cut = (first + new_local) mod n t in
    if new_cut <> itv.cut then begin
      let d =
        match old_local with
        | Some cur -> abs (new_local - cur)
        | None -> Segment.ring_distance ~n:(n t) itv.cut new_cut
      in
      t.move <- t.move +. float_of_int d;
      events :=
        Slicing.Cut_moved
          { id = itv.id; from_edge = itv.cut; to_edge = new_cut; dist = d }
        :: !events;
      itv.cut <- new_cut
    end

  let deactivate itv reason events =
    itv.status <- reason;
    events :=
      Slicing.Cut_removed { id = itv.id; edge = itv.cut; reason } :: !events

  let try_grow t itv events =
    let continue = ref true in
    while !continue && itv.status = Slicing.Active do
      let w = Segment.length itv.seg in
      if w >= Stdlib.min (k t + 1) (n t) then continue := false
      else if min_count t itv.seg >= (1.0 -. t.delta_bar) *. float_of_int w
      then begin
        itv.seg <- grow_seg t itv.seg;
        itv.rank <- itv.rank + 1;
        if is_mono t itv.seg then deactivate itv Slicing.Mono events
        else begin
          Array.iter
            (fun other ->
              if
                other.id <> itv.id && other.status = Slicing.Active
                && Segment.subset other.seg itv.seg
              then deactivate other Slicing.Dominated events)
            t.intervals;
          itv.dist <- Dist.point 0 ~n:1;
          resample_cut t itv events
        end
      end
      else continue := false
    done

  let serve t e =
    let events = ref [] in
    Array.iter
      (fun itv ->
        if itv.status = Slicing.Active && itv.cut = e then
          t.hit <- t.hit +. 1.0)
      t.intervals;
    t.x.(e) <- t.x.(e) +. 1.0;
    Array.iter
      (fun itv ->
        if itv.status = Slicing.Active then
          match local_edge itv.seg e with
          | Some _ ->
              resample_cut t itv events;
              try_grow t itv events
          | None -> ())
      t.intervals;
    List.rev !events

  let save buf t =
    Binc.add_counts buf t.x;
    Rng.save buf t.rng;
    Binc.add_varint buf (Array.length t.intervals);
    Array.iter
      (fun itv ->
        Binc.add_varint buf (Segment.first itv.seg);
        Binc.add_varint buf (Segment.length itv.seg);
        Binc.add_varint buf
          (match itv.status with
          | Slicing.Active -> 0
          | Slicing.Mono -> 1
          | Slicing.Dominated -> 2);
        Binc.add_varint buf itv.cut;
        Binc.add_varint buf itv.rank)
      t.intervals;
    Binc.add_varint buf (int_of_float t.hit);
    Binc.add_varint buf (int_of_float t.move)
end

(* The composed static algorithm over the dense Slicing, rebalancing and
   rewriting the whole assignment on every request. *)
type reference = {
  slicing : Dense_slicing.t;
  clustering : Clustering.t;
  scheduling : Scheduling.t;
  assignment : Assignment.t;
  online : Online.t;
}

let reference ~delta_bar ~eps' inst rng =
  let slicing = Dense_slicing.create ~delta_bar inst rng in
  let clustering = Clustering.create inst in
  let scheduling = Scheduling.create inst ~eps' in
  let assignment = Assignment.create inst in
  let scratch = Array.make inst.Instance.n 0 in
  let serve e =
    List.iter
      (Clustering.apply_event clustering)
      (Dense_slicing.serve slicing e);
    Scheduling.rebalance scheduling (Clustering.clusters clustering);
    Clustering.assignment_into clustering scratch;
    Array.iteri (Assignment.set assignment) scratch
  in
  let online =
    Online.make ~name:"onl-static" ~augmentation:0.0
      ~assignment:(fun () -> assignment)
      ~serve
      ~save:(fun buf ->
        Dense_slicing.save buf slicing;
        Clustering.save buf clustering;
        Scheduling.save buf scheduling)
      ~load:(fun _ -> invalid_arg "reference: no restore")
  in
  { slicing; clustering; scheduling; assignment; online }

(* Everything the request can change, as one comparable value: the
   assignment, Slicing's hit and move costs, Clustering's move, merge and
   mono costs, the rebalance cost and the snapshot bytes. *)
let observed ~assignment ~hit ~move ~clustering ~rebalance ~snapshot =
  ( Assignment.to_array assignment,
    (hit, move),
    ( Clustering.move_cost clustering,
      Clustering.merge_cost clustering,
      Clustering.mono_cost clustering,
      rebalance ),
    snapshot )

let observe_static alg online =
  let sl = Static_alg.slicing alg in
  observed ~assignment:(online.Online.assignment ())
    ~hit:(Slicing.hit_cost sl) ~move:(Slicing.move_cost sl)
    ~clustering:(Static_alg.clustering alg)
    ~rebalance:(Static_alg.rebalance_cost alg)
    ~snapshot:(online.Online.snapshot ())

let observe_reference r =
  observed ~assignment:r.assignment ~hit:r.slicing.Dense_slicing.hit
    ~move:r.slicing.Dense_slicing.move ~clustering:r.clustering
    ~rebalance:(Scheduling.rebalance_cost r.scheduling)
    ~snapshot:(r.online.Online.snapshot ())

(* A balanced initial layout: servers in blocks, the blocks with [swaps]
   random pairs of processes exchanged, or a random permutation.  Off
   blocks, initial cuts lie closer than k apart, so a growing interval
   can contain, and so deactivate, another one that holds the requested
   edge before that one's turn. *)
let layout ~n ~ell layout seed =
  let a = Array.init n (fun p -> p / (n / ell)) in
  let rng = Rng.create seed in
  (match layout with
  | `Blocks -> ()
  | `Swaps swaps ->
      for _ = 1 to swaps do
        let i = Rng.int rng n and j = Rng.int rng n in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done
  | `Shuffled -> Rng.shuffle rng a);
  Instance.make ~n ~ell ~k:(n / ell) ~initial:a ()

(* Random shapes (k >= 2, so n > k) and layouts, epsilons down to 0.05,
   where delta_bar leaves 14/15, and the oblivious workloads or the
   cut-chaser, which requests cut edges and so keeps Slicing's cuts
   moving. *)
let qcheck_static_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"onl-static == dense reference, request by request"
       ~print:(fun ((k, ell, epsilon, seed), (shape, workload, steps)) ->
         Printf.sprintf
           "n=%d ell=%d epsilon=%h seed=%d layout=%s workload=%s steps=%d"
           (k * ell) ell epsilon seed
           (match shape with
           | `Blocks -> "blocks"
           | `Swaps s -> Printf.sprintf "%d swaps" s
           | `Shuffled -> "shuffled")
           workload steps)
       QCheck2.Gen.(
         int_range 2 24 >>= fun k ->
         int_range 2 6 >>= fun ell ->
         oneof [ float_range 0.05 0.3; float_range 0.3 3.0 ] >>= fun epsilon ->
         int_range 0 1_000_000 >>= fun seed ->
         oneof
           [
             return `Blocks;
             (int_range 1 4 >|= fun s -> `Swaps s);
             return `Shuffled;
           ]
         >>= fun shape ->
         oneofl
           [ "uniform"; "hotspot"; "rotating"; "allreduce"; "zipf";
             "piecewise"; "cut-chaser" ]
         >>= fun workload ->
         int_range 200 1500 >|= fun steps ->
         ((k, ell, epsilon, seed), (shape, workload, steps)))
       (fun ((k, ell, epsilon, seed), (shape, workload, steps)) ->
         let n = k * ell in
         let inst = layout ~n ~ell shape (seed + 2) in
         let alg = Static_alg.create ~epsilon inst (Rng.create seed) in
         let online = Static_alg.online alg in
         let r =
           reference ~delta_bar:(Static_alg.delta_bar alg)
             ~eps':(Static_alg.eps' alg) inst (Rng.create seed)
         in
         let trace =
           if workload = "cut-chaser" then Workloads.adversary_cut_chaser ~n
           else
             List.assoc workload
               (Workloads.all_fixed ~n ~steps (Rng.create (seed + 1)))
         in
         let rec go step =
           step = steps
           ||
           let e = Trace.next trace step (online.Online.assignment ()) in
           online.Online.serve e;
           r.online.Online.serve e;
           observe_static alg online = observe_reference r && go (step + 1)
         in
         observe_static alg online = observe_reference r && go 0))

(* onl-static's own serve on a 20k-request rotating trace at n = 512,
   ell = 8: 1.8 minor words per request, almost all of them on the
   requests that make Slicing emit an event (578 when every request
   rebalanced and rewrote the assignment). *)
let test_static_allocation_budget () =
  let n = 512 and ell = 8 and steps = 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let trace =
    match Workloads.rotating ~n ~steps (Rng.create 7919) with
    | Trace.Fixed a -> a
    | Trace.Adaptive _ -> assert false
  in
  let online =
    Static_alg.online (Static_alg.create ~epsilon:0.5 inst (Rng.create 42))
  in
  let before = Gc.minor_words () in
  Array.iter online.Online.serve trace;
  let per_request = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per request <= 2" per_request)
    true (per_request <= 2.0)

(* serve skips the rebalance on a request without events, so a restore
   must not accept clusters that a rebalance would still move: here all
   of them are put on server 0 before the snapshot is taken. *)
let test_static_restore_refuses_overload () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let alg = Static_alg.create ~epsilon:0.5 inst (Rng.create 21) in
  List.iter
    (fun (c : Clustering.cluster) -> c.Clustering.server <- 0)
    (Clustering.clusters (Static_alg.clustering alg));
  let snapshot = (Static_alg.online alg).Online.snapshot () in
  let fresh =
    Static_alg.online (Static_alg.create ~epsilon:0.5 inst (Rng.create 21))
  in
  Alcotest.check_raises "server above the trigger"
    (Invalid_argument
       "Static_alg.restore: a server is above the rebalance trigger")
    (fun () -> fresh.Online.restore snapshot)

(* --- scheduling in isolation ------------------------------------------ *)

let mk_cluster cid size server =
  { Clustering.cid; kind = Clustering.Singleton; size; server }

let test_scheduling_rebalance () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  (* k = 16; put 3 clusters of 20 on server 0: load 60 > (2 + eps') * 16 *)
  let sched = Scheduling.create inst ~eps':0.5 in
  let clusters =
    [ mk_cluster 0 20 0; mk_cluster 1 20 0; mk_cluster 2 20 0;
      mk_cluster 3 4 1 ]
  in
  Scheduling.rebalance sched clusters;
  let loads = Scheduling.loads sched clusters in
  let x_max = 20 in
  let threshold = Scheduling.threshold sched ~x_max in
  Array.iteri
    (fun s load ->
      Alcotest.(check bool)
        (Printf.sprintf "server %d load %d within threshold" s load)
        true
        (float_of_int load <= threshold +. 1e-9))
    loads;
  Alcotest.(check bool) "rebalancing paid for moves" true
    (Scheduling.rebalance_cost sched > 0)

let test_scheduling_noop_when_balanced () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  let sched = Scheduling.create inst ~eps':0.5 in
  let clusters = List.init 4 (fun s -> mk_cluster s 16 s) in
  Scheduling.rebalance sched clusters;
  Alcotest.(check int) "no moves needed" 0 (Scheduling.rebalance_cost sched)

let test_scheduling_huge_cluster () =
  let inst = Instance.blocks ~n:64 ~ell:4 in
  (* k = 16; a cluster of 40 (> k) shares a server with another: the
     eviction path must fire *)
  let sched = Scheduling.create inst ~eps':0.5 in
  let clusters =
    [ mk_cluster 0 40 0; mk_cluster 1 14 0; mk_cluster 2 5 1; mk_cluster 3 5 2 ]
  in
  Scheduling.rebalance sched clusters;
  let loads = Scheduling.loads sched clusters in
  let threshold = Scheduling.threshold sched ~x_max:40 in
  Array.iter
    (fun load ->
      Alcotest.(check bool) "within threshold" true
        (float_of_int load <= threshold +. 1e-9))
    loads

let test_scheduling_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"rebalance restores the bound on random cluster configurations"
       QCheck2.Gen.(
         oneofl [ (64, 4); (128, 8) ] >>= fun (n, ell) ->
         let k = n / ell in
         (* random clusters summing to n, sizes in [1, 3k], random servers *)
         let rec split remaining acc =
           if remaining = 0 then return acc
           else
             int_range 1 (min remaining (3 * k)) >>= fun size ->
             int_range 0 (ell - 1) >>= fun server ->
             split (remaining - size) ((size, server) :: acc)
         in
         split n [] >|= fun clusters -> (n, ell, clusters))
       (fun (n, ell, cluster_specs) ->
         let inst = Instance.blocks ~n ~ell in
         let k = n / ell in
         let sched = Scheduling.create inst ~eps':0.5 in
         let clusters =
           List.mapi
             (fun i (size, server) -> mk_cluster i size server)
             cluster_specs
         in
         Scheduling.rebalance sched clusters;
         let loads = Scheduling.loads sched clusters in
         let x_max =
           List.fold_left
             (fun acc (c : Clustering.cluster) -> max acc c.Clustering.size)
             0 clusters
         in
         let threshold = Scheduling.threshold sched ~x_max in
         let sum = Array.fold_left ( + ) 0 loads in
         ignore k;
         sum = n
         && Array.for_all
              (fun load -> float_of_int load <= threshold +. 1e-9)
              loads))

let () =
  Alcotest.run "rbgp_core_static"
    [
      ( "slicing",
        [
          Alcotest.test_case "initial intervals" `Quick test_slicing_initial;
          Alcotest.test_case "requires n > k" `Quick test_slicing_requires_split;
          Alcotest.test_case "cut inside interval" `Quick
            test_slicing_cut_inside_interval;
          Alcotest.test_case "interval sizes" `Quick test_slicing_interval_sizes;
          Alcotest.test_case "rank growth" `Quick test_slicing_rank_growth;
          Alcotest.test_case "event sanity" `Quick test_slicing_event_sanity;
          Alcotest.test_case "deactivation monotone" `Quick
            test_slicing_deactivation_monotone;
          Alcotest.test_case "request counts" `Quick test_slicing_request_counts;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "create" `Quick test_clustering_create;
          Alcotest.test_case "single-server ring" `Quick
            test_clustering_single_server_ring;
          Alcotest.test_case "boundary move" `Quick test_clustering_boundary_move;
          Alcotest.test_case "merge to single cut" `Quick
            test_clustering_merge_to_single_cut;
          Alcotest.test_case "whole-ring collapse" `Quick
            test_clustering_whole_ring_collapse;
          Alcotest.test_case "duplicate cuts (multiset)" `Quick
            test_clustering_duplicate_cuts;
          Alcotest.test_case "singleton birth" `Quick test_clustering_singleton_birth;
          test_clustering_random_streams;
          Alcotest.test_case "invariants under uniform" `Quick
            test_static_invariants_uniform;
          Alcotest.test_case "invariants under rotating" `Quick
            test_static_invariants_rotating;
          Alcotest.test_case "invariants under zipf" `Quick
            test_static_invariants_zipf;
          Alcotest.test_case "invariants under adversary" `Quick
            test_static_invariants_adversarial;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "rebalance restores bound" `Quick
            test_scheduling_rebalance;
          Alcotest.test_case "no-op when balanced" `Quick
            test_scheduling_noop_when_balanced;
          Alcotest.test_case "huge cluster eviction" `Quick
            test_scheduling_huge_cluster;
          test_scheduling_random;
        ] );
      ( "static-alg",
        [
          Alcotest.test_case "load bound (Lemma 4.13)" `Quick
            test_static_load_bound;
          Alcotest.test_case "strict on cheap traces" `Quick
            test_static_strict_on_cheap_traces;
          Alcotest.test_case "deterministic by seed" `Quick
            test_static_deterministic_by_seed;
          Alcotest.test_case "comm dominated by hits" `Quick
            test_static_comm_dominated_by_hits;
          Alcotest.test_case "cost counters" `Quick test_static_cost_counters;
          Alcotest.test_case "augmentation formula" `Quick
            test_static_augmentation_formula;
          qcheck_static_matches_reference;
          Alcotest.test_case "serve allocation budget" `Quick
            test_static_allocation_budget;
          Alcotest.test_case "restore refuses an overloaded snapshot" `Quick
            test_static_restore_refuses_overload;
        ] );
    ]
