(* Tests for the bench's gate table (bench/gates.ml), the one place the
   bench's thresholds live.

   The table is pinned gate by gate, bound and direction, so that no
   threshold moves without this file changing with it.  The interval rule
   is checked on synthetic pair sets: a gate reads the end of the
   distribution-free interval for the median, not the median itself. *)

let pp_rule ppf = function
  | Gates.Floor b -> Format.fprintf ppf "floor %h" b
  | Gates.Ceiling b -> Format.fprintf ppf "ceiling %h" b
  | Gates.Every_pair -> Format.fprintf ppf "every pair"

let gate =
  Alcotest.testable
    (fun ppf (g : Gates.gate) ->
      Format.fprintf ppf "%s: %a" g.name pp_rule g.rule)
    ( = )

let test_table_pinned () =
  let g name rule = { Gates.name; rule } in
  Alcotest.(check (list gate))
    "every gate, bound and direction"
    [
      g "r2" (Floor 0.5);
      g "e10_quick_s" (Ceiling 5.0);
      g "decode_speedup" (Floor 5.0);
      g "never_move_rps" (Floor 1e6);
      g "socket_overhead" (Ceiling 0.30);
      g "decode_identical" Every_pair;
      g "socket_identical" Every_pair;
      g "parallel_identical" Every_pair;
    ]
    Gates.table

let test_rank () =
  List.iter
    (fun (p, k) ->
      Alcotest.(check int) (Printf.sprintf "k at P = %d" p) k (Gates.rank p))
    [ (5, 0); (6, 1); (21, 6); (41, 14); (61, 23); (161, 68) ]

(* [n] copies of [x] then [m] copies of [y], with [x > y], so that the
   interval has to sort them *)
let descending n x m y = Array.append (Array.make n x) (Array.make m y)

let verdict gate xs = Gates.passes gate (Gates.Interval (Gates.interval xs))

(* P = 21, so k = 6: the upper end is the 16th smallest value *)
let test_ceiling_reads_upper_end () =
  let xs = descending 6 0.35 15 0.20 in
  let i = Gates.interval xs in
  Alcotest.(check (float 0.0)) "median under the ceiling" 0.20 i.median;
  Alcotest.(check (float 0.0)) "upper end over it" 0.35 i.hi;
  Alcotest.(check bool) "fails" false (verdict Gates.socket_overhead xs);
  Alcotest.(check bool)
    "one more low pair pulls the upper end under: passes" true
    (verdict Gates.socket_overhead (descending 5 0.35 16 0.20))

let test_floor_reads_lower_end () =
  let xs = descending 15 6.0 6 4.0 in
  let i = Gates.interval xs in
  Alcotest.(check (float 0.0)) "median over the floor" 6.0 i.median;
  Alcotest.(check (float 0.0)) "lower end under it" 4.0 i.lo;
  Alcotest.(check bool) "fails" false (verdict Gates.decode_speedup xs);
  Alcotest.(check bool)
    "one fewer slow pair lifts the lower end: passes" true
    (verdict Gates.decode_speedup (descending 16 6.0 5 4.0))

let test_too_few_pairs_fail () =
  let xs = Array.make 5 0.0 in
  Alcotest.(check bool) "ceiling" false (verdict Gates.socket_overhead xs);
  Alcotest.(check bool)
    "floor" false
    (verdict Gates.never_move_rps (Array.make 5 1e9))

let test_points_and_bits () =
  let point g x = Gates.passes g (Gates.Interval (Gates.point x)) in
  Alcotest.(check bool) "r2 at the floor passes" true (point Gates.r2 0.5);
  Alcotest.(check bool) "r2 under it fails" false (point Gates.r2 0.499);
  Alcotest.(check bool)
    "e10 under 5 s passes" true
    (point Gates.e10_quick_s 4.9);
  Alcotest.(check bool)
    "e10 at 5 s fails" false
    (point Gates.e10_quick_s 5.0);
  let bits b = Gates.passes Gates.socket_identical (Gates.Bits b) in
  Alcotest.(check bool) "every pair held" true (bits [| true; true; true |]);
  Alcotest.(check bool)
    "one pair diverged" false
    (bits [| true; false; true |]);
  Alcotest.(check bool) "no pairs" false (bits [||])

let () =
  Alcotest.run "gates"
    [
      ( "gate table",
        [
          Alcotest.test_case "bounds and directions pinned" `Quick
            test_table_pinned;
          Alcotest.test_case "k at P = 21, 41, 61, 161" `Quick test_rank;
          Alcotest.test_case "ceiling reads the upper end" `Quick
            test_ceiling_reads_upper_end;
          Alcotest.test_case "floor reads the lower end" `Quick
            test_floor_reads_lower_end;
          Alcotest.test_case "fewer than 6 pairs fail" `Quick
            test_too_few_pairs_fail;
          Alcotest.test_case "points and identity bits" `Quick
            test_points_and_bits;
        ] );
    ]
