(* Tests for the hitting game (Section 4.1): the game drivers, the growth
   schedule, the interval-growing player's invariants and competitive
   behaviour, the player against its dense reference, the exact
   comparators, and the adversaries. *)

module Game = Rbgp_hitting.Game
module Ig = Rbgp_hitting.Interval_growing
module Sopt = Rbgp_hitting.Static_opt
module Adv = Rbgp_hitting.Adversary
module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin
module Rng = Rbgp_util.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The interval growing player on the line as the paper states it: every
   request inside the interval recomputes grad smin' of the whole
   interval's counts and moves through the coupled resample, and the
   growth test scans for the smallest count.  Ig's line player must
   follow it request for request on the same rng. *)
module Dense_ig = struct
  type t = {
    k : int;  (* number of edges; vertices are 0..k *)
    delta_bar : float;
    rng : Rng.t;
    x : float array;  (* request counts per edge *)
    mutable vl : int;  (* interval left vertex *)
    mutable vr : int;  (* interval right vertex *)
    mutable position : int;  (* current edge *)
    mutable dist : Dist.t;  (* distribution over edges vl..vr-1 *)
    mutable phases : int;
    mutable hit : float;
    mutable move : float;
  }

  let dist_of t vl vr =
    let m = vr - vl in
    let buf = Array.make m 0.0 in
    Smin.grad_sub_into ~c:(Float.max 1.0 (float_of_int m)) t.x ~lo:vl
      ~hi:(vr - 1) buf;
    Dist.of_grad buf

  let grow_rule ~k ~vl ~vr =
    let w = vr - vl + 1 in
    let desired = min (2 * w) (k + 1) in
    let extra = desired - w in
    let left = extra / 2 and right = extra - (extra / 2) in
    let vl' = vl - left and vr' = vr + right in
    (* shift back inside [0, k] without shrinking *)
    let shift = if vl' < 0 then -vl' else if vr' > k then k - vr' else 0 in
    (vl' + shift, vr' + shift)

  let create ~k ~delta_bar ~start rng =
    let t =
      {
        k;
        delta_bar;
        rng;
        x = Array.make k 0.0;
        vl = start;
        vr = start + 1;
        position = start;
        dist = Dist.point 0 ~n:1;
        phases = 0;
        hit = 0.0;
        move = 0.0;
      }
    in
    t.dist <- dist_of t t.vl t.vr;
    t

  let min_in_interval t =
    let m = ref t.x.(t.vl) in
    for e = t.vl + 1 to t.vr - 1 do
      if t.x.(e) < !m then m := t.x.(e)
    done;
    !m

  let move_to t new_pos =
    t.move <- t.move +. float_of_int (abs (new_pos - t.position));
    t.position <- new_pos

  let maybe_grow t =
    let continue = ref true in
    while !continue do
      let width = t.vr - t.vl + 1 in
      if width >= t.k + 1 then continue := false
      else if min_in_interval t >= (1.0 -. t.delta_bar) *. float_of_int width
      then begin
        let vl', vr' = grow_rule ~k:t.k ~vl:t.vl ~vr:t.vr in
        t.vl <- vl';
        t.vr <- vr';
        t.phases <- t.phases + 1;
        t.dist <- dist_of t t.vl t.vr;
        move_to t (t.vl + Dist.sample t.rng t.dist)
      end
      else continue := false
    done

  let serve t e =
    if e = t.position then t.hit <- t.hit +. 1.0;
    t.x.(e) <- t.x.(e) +. 1.0;
    if e >= t.vl && e < t.vr then begin
      let new_dist = dist_of t t.vl t.vr in
      let rel =
        Dist.resample_coupled t.rng ~current:(t.position - t.vl)
          ~old_dist:t.dist ~new_dist
      in
      t.dist <- new_dist;
      move_to t (t.vl + rel)
    end;
    maybe_grow t
end

(* Ig's interval as the inclusive vertex range [(vl, vr)] on the line. *)
let interval ig = (Ig.first ig, Ig.first ig + Ig.width ig - 1)

(* --- start edge / growth rule ------------------------------------------ *)

let test_start_edge () =
  Alcotest.(check int) "k=1" 0 (Game.start_edge ~k:1);
  Alcotest.(check int) "k=2" 0 (Game.start_edge ~k:2);
  Alcotest.(check int) "k=8" 3 (Game.start_edge ~k:8);
  Alcotest.(check int) "k=9" 4 (Game.start_edge ~k:9)

(* On the line an interval is [width] vertices from [first] inside
   [0, k]; on the ring ([ring] = Some n, n > k) it may wrap.  Doubling
   must reach min (2w) cap around the old vertices, centered unless the
   line's end shifts it, and on the line stay inside. *)
let test_grow_rule =
  qtest ~count:500 "grow rule: doubles, stays in bounds, keeps the core"
    QCheck2.Gen.(
      int_range 1 100 >>= fun k ->
      opt (int_range (k + 1) (2 * k + 2)) >>= fun ring ->
      let size = match ring with Some n -> n | None -> k in
      let cap = match ring with Some n -> min (k + 1) n | None -> k + 1 in
      int_range 2 cap >>= fun width ->
      int_range 0 (match ring with Some n -> n - 1 | None -> k + 1 - width)
      >|= fun first -> (k, ring, size, first, width))
    (fun (k, ring, size, first, width) ->
      let geometry =
        match ring with Some n -> Ig.Ring { n; k } | None -> Ig.Line k
      in
      let ig =
        Ig.create geometry ~counts:(Array.make size 0.0) (Rng.create 1) 0
      in
      Ig.restore ig ~first ~width ~position:first ~rank:0;
      Ig.double ig;
      let first' = Ig.first ig and width' = Ig.width ig in
      let cap = match ring with Some n -> min (k + 1) n | None -> k + 1 in
      (* the old first vertex's offset from the new one, clockwise *)
      let off = (first - first' + size) mod size in
      let at_end = ring = None && (first' = 0 || first' + width' - 1 = k) in
      width' = min (2 * width) cap
      && first' >= 0 && first' < size
      && (ring <> None || first' + width' - 1 <= k)
      && off + width <= width'
      && (off = (width' - width) / 2 || at_end)
      && Ig.rank ig = 1)

(* --- interval growing --------------------------------------------------- *)

let test_ig_matches_dense =
  qtest ~count:200 "line player == dense reference, request by request"
    QCheck2.Gen.(
      int_range 1 48 >>= fun k ->
      (* 3/4 and 7/8 make the growth threshold a whole number *)
      oneof [ oneofl [ 14.0 /. 15.0; 0.75; 0.875 ]; float_range 0.51 0.99 ]
      >>= fun delta_bar ->
      int_range 0 (k - 1) >>= fun start ->
      int_bound 1000 >>= fun seed ->
      list_size (int_range 1 600) (int_range 0 (k - 1)) >|= fun es ->
      (k, delta_bar, start, seed, es))
    (fun (k, delta_bar, start, seed, es) ->
      let ig = Ig.line ~k ~delta_bar ~start (Rng.create seed) in
      let p = Ig.player ig in
      let d = Dense_ig.create ~k ~delta_bar ~start (Rng.create seed) in
      List.for_all
        (fun e ->
          p.Game.serve e;
          Dense_ig.serve d e;
          Ig.position ig = d.Dense_ig.position
          && interval ig = (d.Dense_ig.vl, d.Dense_ig.vr)
          && Ig.rank ig = d.Dense_ig.phases
          && p.Game.hit_cost () = d.Dense_ig.hit
          && p.Game.move_cost () = d.Dense_ig.move)
        es)

let test_ig_position_inside =
  qtest ~count:50 "position stays within the current interval"
    QCheck2.Gen.(
      int_range 2 64 >>= fun k ->
      list_size (int_range 1 300) (int_range 0 (k - 1)) >|= fun es ->
      (k, Array.of_list es))
    (fun (k, es) ->
      let ig = Ig.line ~k (Rng.create 3) in
      let p = Ig.player ig in
      Array.for_all
        (fun e ->
          p.Game.serve e;
          let vl, vr = interval ig in
          let pos = Ig.position ig in
          pos >= vl && pos < vr && Ig.holds ig pos)
        es)

let test_ig_phase_bound =
  qtest ~count:50 "phases bounded by log2(k+1) + 1"
    QCheck2.Gen.(
      int_range 2 64 >>= fun k ->
      list_size (int_range 1 500) (int_range 0 (k - 1)) >|= fun es ->
      (k, Array.of_list es))
    (fun (k, es) ->
      let ig = Ig.line ~k (Rng.create 7) in
      Game.run (Ig.player ig) es;
      float_of_int (Ig.rank ig)
      <= (log (float_of_int (k + 1)) /. log 2.0) +. 1.0)

let test_ig_counts () =
  let counts = Array.make 8 0.0 in
  let p = Ig.player (Ig.create (Ig.Line 8) ~counts (Rng.create 1) 3) in
  Game.run p [| 2; 2; 5 |];
  Alcotest.(check (float 0.0)) "count edge 2" 2.0 counts.(2);
  Alcotest.(check (float 0.0)) "count edge 5" 1.0 counts.(5);
  Alcotest.(check (float 0.0)) "count edge 0" 0.0 counts.(0)

let test_ig_hammer_cheap () =
  (* requests at the start edge: after the first growth the player escapes
     and pays a constant independent of the horizon *)
  let k = 128 in
  let p = Ig.player (Ig.line ~k (Rng.create 5)) in
  let start = Game.start_edge ~k in
  for _ = 1 to 10_000 do
    p.Game.serve start
  done;
  let cost = Game.total_cost p in
  Alcotest.(check bool)
    (Printf.sprintf "hammer cost %.0f small" cost)
    true (cost <= 20.0)

let test_ig_competitive_uniform () =
  (* uniform requests: the measured ratio stays within a generous polylog
     envelope (Corollary 4.4 says O(log k) in expectation) *)
  let k = 64 in
  let steps = 20_000 in
  let rng = Rng.create 11 in
  let requests = Adv.uniform ~k ~steps (Rng.split rng) in
  let ratios =
    List.map
      (fun seed ->
        let p = Ig.player (Ig.line ~k (Rng.create seed)) in
        Game.run p requests;
        Game.total_cost p /. Sopt.static ~k requests)
      [ 1; 2; 3 ]
  in
  let mean = List.fold_left ( +. ) 0.0 ratios /. 3.0 in
  let envelope = 3.0 *. (log (float_of_int k) /. log 2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within 3 log2 k = %.1f" mean envelope)
    true (mean <= envelope)

let test_ig_lemma_4_3_bound () =
  (* Lemma 4.3: for the current interval I,
     E[hit] <= 2 min(I) + O(ln|I|)|I| and E[move] <= 4 min(I) + O(ln|I|)|I|.
     Check with a generous constant, averaged over seeds. *)
  let k = 64 in
  let steps = 20_000 in
  let requests = Adv.uniform ~k ~steps (Rng.create 31) in
  let counts = Array.make k 0 in
  Array.iter (fun e -> counts.(e) <- counts.(e) + 1) requests;
  List.iter
    (fun seed ->
      let ig = Ig.line ~k (Rng.create seed) in
      let p = Ig.player ig in
      Game.run p requests;
      let vl, vr = interval ig in
      let width = float_of_int (vr - vl + 1) in
      let min_i = ref max_int in
      for e = vl to vr - 1 do
        min_i := min !min_i counts.(e)
      done;
      let slack = 8.0 *. log width *. width in
      let hit = p.Game.hit_cost () and move = p.Game.move_cost () in
      Alcotest.(check bool)
        (Printf.sprintf "hit %.0f within Lemma 4.3a" hit)
        true
        (hit <= (2.0 *. float_of_int !min_i) +. slack);
      Alcotest.(check bool)
        (Printf.sprintf "move %.0f within Lemma 4.3b" move)
        true
        (move <= (4.0 *. float_of_int !min_i) +. slack))
    [ 1; 2; 3 ]

let test_ig_player_consistency () =
  let k = 16 in
  let ig = Ig.line ~k (Rng.create 9) in
  let p = Ig.player ig in
  p.Game.serve 7;
  p.Game.serve 7;
  Alcotest.(check int)
    "position via player" (Ig.position ig) (p.Game.position ());
  Alcotest.(check bool)
    "hit on the start edge" true (p.Game.hit_cost () >= 1.0);
  Alcotest.(check (float 1e-9)) "total = hit + move"
    (p.Game.hit_cost () +. p.Game.move_cost ())
    (Game.total_cost p)

let test_ig_validation () =
  Alcotest.check_raises "bad delta"
    (Invalid_argument "Interval_growing.create: delta_bar out of (1/2, 1)")
    (fun () -> ignore (Ig.line ~k:8 ~delta_bar:0.3 (Rng.create 0)));
  Alcotest.check_raises "bad start"
    (Invalid_argument "Interval_growing.create: start edge out of range")
    (fun () -> ignore (Ig.line ~k:8 ~start:8 (Rng.create 0)));
  Alcotest.check_raises "bad k"
    (Invalid_argument "Interval_growing.create: k must be positive")
    (fun () -> ignore (Ig.line ~k:0 ~start:0 (Rng.create 0)));
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Interval_growing.serve: edge out of range") (fun () ->
      (Ig.player (Ig.line ~k:8 (Rng.create 0))).Game.serve 8)

(* --- static / dynamic comparators --------------------------------------- *)

let requests_gen =
  QCheck2.Gen.(
    int_range 2 32 >>= fun k ->
    list_size (int_range 0 60) (int_range 0 (k - 1)) >|= fun es ->
    (k, Array.of_list es))

let test_static_formula =
  qtest ~count:300 "static OPT = min over positions of dist + hits"
    requests_gen (fun (k, es) ->
      let start = Game.start_edge ~k in
      let hits = Array.make k 0 in
      Array.iter (fun e -> hits.(e) <- hits.(e) + 1) es;
      let expected = ref infinity in
      for p = 0 to k - 1 do
        let v = float_of_int (abs (p - start) + hits.(p)) in
        if v < !expected then expected := v
      done;
      Float.abs (Sopt.static ~k es -. !expected) < 1e-9)

let test_static_position =
  qtest ~count:300 "static position realizes the optimum" requests_gen
    (fun (k, es) ->
      let start = Game.start_edge ~k in
      let p = Sopt.static_position ~k es in
      let hits = Array.make k 0 in
      Array.iter (fun e -> hits.(e) <- hits.(e) + 1) es;
      Float.abs
        (float_of_int (abs (p - start) + hits.(p)) -. Sopt.static ~k es)
      < 1e-9)

let test_dynamic_le_static =
  qtest ~count:300 "dynamic OPT <= static OPT" requests_gen (fun (k, es) ->
      Sopt.dynamic ~k es <= Sopt.static ~k es +. 1e-9)

(* --- players and adversaries -------------------------------------------- *)

let test_greedy_dodge_chase () =
  let k = 32 in
  let steps = 4 * k * k in
  let dodger = Game.greedy_dodge ~k () in
  let trace =
    Game.run_adaptive dodger ~steps ~next:(fun _ pos -> Adv.chase 0 pos)
  in
  (* chased, the sweeper pays every step... *)
  Alcotest.(check (float 1e-9)) "pays every step" (float_of_int steps)
    (Game.total_cost dodger);
  (* ...and spreads the requests so static OPT is ~steps/k + O(k) *)
  let opt = Sopt.static ~k trace in
  Alcotest.(check bool)
    (Printf.sprintf "opt %.0f near T/k + k" opt)
    true
    (opt >= float_of_int (steps / k) /. 2.0
    && opt <= float_of_int ((steps / k) + (2 * k)))

let test_of_mts_player () =
  let k = 8 in
  let m = Rbgp_mts.Metric.Line k in
  let solver = Rbgp_mts.Work_function.solver m ~start:3 ~rng:(Rng.create 0) in
  let p = Game.of_mts solver in
  Alcotest.(check int) "initial position" 3 (p.Game.position ());
  p.Game.serve 3;
  p.Game.serve 3;
  Alcotest.(check bool) "costs accumulate" true (Game.total_cost p > 0.0)

let test_adversaries_ranges () =
  let k = 16 in
  let u = Adv.uniform ~k ~steps:500 (Rng.create 2) in
  Alcotest.(check bool) "uniform in range" true
    (Array.for_all (fun e -> e >= 0 && e < k) u);
  let h = Adv.hammer ~k ~edge:5 ~steps:100 in
  Alcotest.(check bool) "hammer constant" true (Array.for_all (( = ) 5) h);
  let b = Adv.bait_and_switch ~k ~steps:100 in
  Alcotest.(check bool) "bait in range" true
    (Array.for_all (fun e -> e >= 0 && e < k) b);
  Alcotest.(check bool) "bait switches" true (b.(0) <> b.(99))

let () =
  Alcotest.run "rbgp_hitting"
    [
      ( "schedule",
        [
          Alcotest.test_case "start edge" `Quick test_start_edge;
          test_grow_rule;
        ] );
      ( "interval-growing",
        [
          test_ig_matches_dense;
          test_ig_position_inside;
          test_ig_phase_bound;
          Alcotest.test_case "request counts" `Quick test_ig_counts;
          Alcotest.test_case "hammer is cheap" `Quick test_ig_hammer_cheap;
          Alcotest.test_case "uniform competitive" `Quick test_ig_competitive_uniform;
          Alcotest.test_case "Lemma 4.3 phase bounds" `Quick test_ig_lemma_4_3_bound;
          Alcotest.test_case "player view consistent" `Quick test_ig_player_consistency;
          Alcotest.test_case "validation" `Quick test_ig_validation;
        ] );
      ( "comparators",
        [ test_static_formula; test_static_position; test_dynamic_le_static ] );
      ( "players",
        [
          Alcotest.test_case "greedy-dodge chase" `Quick test_greedy_dodge_chase;
          Alcotest.test_case "of_mts adapter" `Quick test_of_mts_player;
          Alcotest.test_case "adversary ranges" `Quick test_adversaries_ranges;
        ] );
    ]
