(* Unit and property tests for Rbgp_util: the PRNG, the smooth-minimum
   machinery of Appendix A, finite distributions with couplings, and the
   statistics helpers.  The smin tests check the appendix's inequalities
   (Fact A.1, Lemmas A.2 and A.3) numerically on random vectors — these
   inequalities carry the whole randomized analysis, so they get the
   heaviest property coverage. *)

module Rng = Rbgp_util.Rng
module Smin = Rbgp_util.Smin
module Dist = Rbgp_util.Dist
module Stats = Rbgp_util.Stats
module Binc = Rbgp_util.Binc

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Rng ------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy matches" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Known answers of the xoshiro256++/splitmix64 stream: per seed, the
   first [bits64], then a [float], then an [int 1000], then the 32 [save]
   bytes (hex); the same for the [split] child drawn after them.  Two
   fresh streams agreeing says nothing about the stream itself; these
   pin it, so a rewrite of the generator must reproduce every draw. *)
let rng_known_answers =
  [
    ( 0,
      (0x53175d61490b23dfL, 0x1.8769bcf70e034p-2, 276,
       "507516bb4ee25fd2c97318167e29c61e8a3f274cefff7f9fb105a46212b2717d"),
      (0x44ab240501d74597L, 0x1.952897c577a1ap-2, 731,
       "62495352453ca8c0a1557820e0f519018455287bd1ed8531342ab4c75363eea0") );
    ( 1,
      (0xcfc5d07f6f03c29bL, 0x1.7e8482652c7fcp-1, 744,
       "3df2f01881f7e6ecd44858884590cbdf1edd421c398f81e49c494329233ce2cb"),
      (0xb36f4cca74a0a1ffL, 0x1.187f7ee00008ap-1, 367,
       "f752a2df5e72fe460d0f2b79a945413263ccf419dc318a71faac25799dd910d6") );
    ( 7919,
      (0x29449f6c2ebf2ad7L, 0x1.43e983aa973bp-2, 644,
       "17daac757714127a00c82ea8fe500dcc970457c104e6e294e3aa4a4ab20283e6"),
      (0x2f5574c6c48842daL, 0x1.47d0b0b9e8f8p-3, 820,
       "d1d6b8d5c0f8e2694c2f09761e42726f56a21e0165e4e2e622bd4407d8220319") );
    ( -1,
      (0x56ccf8ce948e27b2L, 0x1.cd0b10865cb4bp-1, 723,
       "b248dda5eb349bc5304e5b1c2eafe062c2e0e194657006f0ac72eb41154e30e5"),
      (0x7432d27bb478de91L, 0x1.98b0d841d56a3p-1, 691,
       "439f3b43dae11679720b851a9306d1efd2a01740e57f38bea9566516c0483c4c") );
  ]

let saved_hex r =
  let buf = Buffer.create 32 in
  Rng.save buf r;
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq (Buffer.contents buf))))

let test_rng_known_answers () =
  let check_draws name r (bits, f, i, saved) =
    check Alcotest.int64 (name ^ ": bits64") bits (Rng.bits64 r);
    check Alcotest.string (name ^ ": float") (Printf.sprintf "%h" f)
      (Printf.sprintf "%h" (Rng.float r));
    check Alcotest.int (name ^ ": int") i (Rng.int r 1000);
    check Alcotest.string (name ^ ": save") saved (saved_hex r)
  in
  List.iter
    (fun (seed, parent, child) ->
      let name = Printf.sprintf "seed %d" seed in
      let r = Rng.create seed in
      check_draws name r parent;
      check_draws (name ^ " split") (Rng.split r) child)
    rng_known_answers;
  (* [int]'s rejection loop: bounds just above 2^61 reject about half of
     the 62-bit draws, [max_int] none *)
  let r = Rng.create 11 in
  check
    Alcotest.(list int)
    "int rejection draws"
    [ 2025137469089464960; 1041635069663816853; 1904029476374560781;
      228188595418811154; 379997043288062709; 718732666512671226;
      2096551263291112639; 1022316707476413916 ]
    (List.init 8 (fun _ -> Rng.int r ((1 lsl 61) + 1)));
  let r = Rng.create 3 in
  let bounds = [| 1; 2; 3; 7; 1000; (1 lsl 61) + 1; max_int |] in
  let h = ref 0 in
  for k = 0 to 99_999 do
    h := (!h * 31) + Rng.int r bounds.(k mod Array.length bounds)
  done;
  check Alcotest.int "hash of 1e5 int draws" (-2676868120396492032) !h;
  check Alcotest.string "state after them"
    "cbbe5dc5761c558635f9c61164ef34b637f15ab56c009ac10d09436b7a4f5614"
    (saved_hex r)

let test_rng_split_diverges () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniform () =
  let rng = Rng.create 2 in
  let buckets = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = trials / 8 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (abs (c - expected) < expected / 5))
    buckets

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let twin = Rng.copy rng in
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0);
    (* bits53 is the same draw as an int *)
    let bits = Rng.bits53 twin in
    Alcotest.(check bool) "bits53 in [0, 2^53)" true
      (bits >= 0 && bits < 1 lsl 53);
    Alcotest.(check bool) "float = bits53 * 2^-53" true
      (Float.equal v (float_of_int bits *. 0x1p-53));
    Alcotest.(check bool) "same state after" true
      (Int64.equal (Rng.bits64 twin) (Rng.bits64 (Rng.copy rng)))
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 4 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_geometric () =
  let rng = Rng.create 6 in
  let total = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let v = Rng.geometric rng 0.5 in
    Alcotest.(check bool) "non-negative" true (v >= 0);
    total := !total + v
  done;
  (* mean of failures-before-success at p = 1/2 is 1 *)
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 1" true (Float.abs (mean -. 1.0) < 0.1)

let test_rng_exponential () =
  let rng = Rng.create 8 in
  let total = ref 0.0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let v = Rng.exponential rng 2.0 in
    Alcotest.(check bool) "positive" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.05)

(* --- Smin ------------------------------------------------------------ *)

let vec_gen =
  QCheck2.Gen.(
    list_size (int_range 1 40) (float_bound_inclusive 100.0) >|= Array.of_list)

let min_arr x = Array.fold_left Float.min x.(0) x

let test_smin_bounds =
  qtest "smin: min - ln n <= smin <= min (Fact A.1 i)" vec_gen (fun x ->
      let s = Smin.smin x and m = min_arr x in
      let n = float_of_int (Array.length x) in
      s <= m +. 1e-9 && s >= m -. log n -. 1e-9)

let test_smin_grad_dist =
  qtest "smin: gradient is a distribution (Fact A.1 ii)" vec_gen (fun x ->
      let g = Smin.grad x in
      let sum = Array.fold_left ( +. ) 0.0 g in
      Array.for_all (fun v -> v >= 0.0) g && Float.abs (sum -. 1.0) < 1e-9)

let pair_gen =
  QCheck2.Gen.(
    int_range 1 30 >>= fun n ->
    let fvec hi = array_size (return n) (float_bound_inclusive hi) in
    pair (fvec 50.0) (fvec 1.0))

let test_smin_growth =
  qtest "smin: smin(x+l) - smin(x) >= grad(x).l / 2 (Lemma A.2 i)" pair_gen
    (fun (x, l) ->
      let xl = Array.mapi (fun i v -> v +. l.(i)) x in
      let lhs = Smin.smin xl -. Smin.smin x in
      let g = Smin.grad x in
      let dot = ref 0.0 in
      Array.iteri (fun i gi -> dot := !dot +. (gi *. l.(i))) g;
      lhs >= (0.5 *. !dot) -. 1e-9)

let test_smin_grad_stability =
  qtest "smin: |grad(x+l) - grad(x)|_1 <= 2 grad(x).l (Lemma A.2 ii)" pair_gen
    (fun (x, l) ->
      let xl = Array.mapi (fun i v -> v +. l.(i)) x in
      let g = Smin.grad x and g' = Smin.grad xl in
      let l1 = ref 0.0 and dot = ref 0.0 in
      Array.iteri
        (fun i gi ->
          l1 := !l1 +. Float.abs (g'.(i) -. gi);
          dot := !dot +. (gi *. l.(i)))
        g;
      !l1 <= (2.0 *. !dot) +. 1e-9)

let scaled_gen = QCheck2.Gen.(pair vec_gen (float_range 1.0 20.0))

let test_smin_c_bounds =
  qtest "smin_c: min - c ln n <= smin_c <= min (Lemma A.3 i)" scaled_gen
    (fun (x, c) ->
      let s = Smin.smin_c ~c x and m = min_arr x in
      let n = float_of_int (Array.length x) in
      s <= m +. 1e-9 && s >= m -. (c *. log n) -. 1e-9)

let test_smin_c_grad_stability =
  qtest "smin_c: L1 drift <= (2/c) grad.l (Lemma A.3 iv)"
    QCheck2.Gen.(pair pair_gen (float_range 1.0 20.0))
    (fun ((x, l), c) ->
      let xl = Array.mapi (fun i v -> v +. l.(i)) x in
      let g = Smin.grad_c ~c x and g' = Smin.grad_c ~c xl in
      let l1 = ref 0.0 and dot = ref 0.0 in
      Array.iteri
        (fun i gi ->
          l1 := !l1 +. Float.abs (g'.(i) -. gi);
          dot := !dot +. (gi *. l.(i)))
        g;
      !l1 <= (2.0 /. c *. !dot) +. 1e-9)

let test_smin_sub_consistency =
  qtest "smin_sub/grad_sub agree with explicit slices"
    QCheck2.Gen.(
      vec_gen >>= fun x ->
      let n = Array.length x in
      int_range 0 (n - 1) >>= fun lo ->
      int_range lo (n - 1) >|= fun hi -> (x, lo, hi))
    (fun (x, lo, hi) ->
      let slice = Array.sub x lo (hi - lo + 1) in
      let c = 3.0 in
      let direct = Smin.smin_c ~c slice in
      let sub = Smin.smin_sub ~c x ~lo ~hi in
      let g1 = Smin.grad_c ~c slice in
      let g2 = Array.make (hi - lo + 1) 0.0 in
      Smin.grad_sub_into ~c x ~lo ~hi g2;
      Float.abs (direct -. sub) < 1e-9
      && Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) g1 g2)

let test_smin_huge_counts () =
  (* numerical stability: counters in the millions must not overflow *)
  let x = [| 1e7; 2e7; 1e7 +. 3.0 |] in
  let s = Smin.smin x in
  Alcotest.(check bool) "finite" true (Float.is_finite s);
  let g = Smin.grad x in
  Alcotest.(check bool) "gradient concentrates on minimum" true (g.(0) > 0.9)

(* --- Dist ------------------------------------------------------------ *)

let weights_gen =
  QCheck2.Gen.(
    list_size (int_range 1 30) (float_range 0.01 10.0) >|= Array.of_list)

let test_dist_normalized =
  qtest "dist: of_weights normalizes" weights_gen (fun w ->
      let d = Dist.of_weights w in
      let sum = Array.fold_left ( +. ) 0.0 (Dist.to_array d) in
      Float.abs (sum -. 1.0) < 1e-9)

let test_dist_sample_support () =
  let rng = Rng.create 10 in
  let d = Dist.of_weights [| 0.0; 1.0; 0.0; 2.0; 0.0 |] in
  for _ = 1 to 5_000 do
    let s = Dist.sample rng d in
    Alcotest.(check bool) "only support sampled" true (s = 1 || s = 3)
  done

let test_dist_sample_frequencies () =
  let rng = Rng.create 11 in
  let d = Dist.of_weights [| 1.0; 2.0; 3.0; 4.0 |] in
  let counts = Array.make 4 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let s = Dist.sample rng d in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      let expect = Dist.prob d i *. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "freq %d" i)
        true
        (Float.abs (float_of_int c -. expect) < 0.06 *. float_of_int trials))
    counts

let test_coupling_marginal () =
  (* if current ~ old, the coupled resample must be distributed as new *)
  let rng = Rng.create 12 in
  let old_d = Dist.of_weights [| 4.0; 1.0; 1.0; 2.0 |] in
  let new_d = Dist.of_weights [| 1.0; 3.0; 2.0; 2.0 |] in
  let counts = Array.make 4 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let cur = Dist.sample rng old_d in
    let nxt = Dist.resample_coupled rng ~current:cur ~old_dist:old_d ~new_dist:new_d in
    counts.(nxt) <- counts.(nxt) + 1
  done;
  Array.iteri
    (fun i c ->
      let expect = Dist.prob new_d i *. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "marginal %d" i)
        true
        (Float.abs (float_of_int c -. expect) < 0.02 *. float_of_int trials))
    counts

let test_coupling_movement () =
  (* probability of moving equals the total-variation distance *)
  let rng = Rng.create 13 in
  let old_d = Dist.of_weights [| 4.0; 1.0; 1.0; 2.0 |] in
  let new_d = Dist.of_weights [| 1.0; 3.0; 2.0; 2.0 |] in
  let moved = ref 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let cur = Dist.sample rng old_d in
    let nxt = Dist.resample_coupled rng ~current:cur ~old_dist:old_d ~new_dist:new_d in
    if nxt <> cur then incr moved
  done;
  let tv = Dist.tv_distance old_d new_d in
  let freq = float_of_int !moved /. float_of_int trials in
  Alcotest.(check bool) "move prob = tv distance" true (Float.abs (freq -. tv) < 0.01)

let dist_pair_gen =
  QCheck2.Gen.(
    int_range 2 20 >>= fun n ->
    let w = array_size (return n) (float_range 0.01 5.0) in
    pair w w)

let test_tv_l1 =
  qtest "dist: tv = l1 / 2, metric properties" dist_pair_gen (fun (a, b) ->
      let da = Dist.of_weights a and db = Dist.of_weights b in
      let tv = Dist.tv_distance da db in
      Float.abs ((2.0 *. tv) -. Dist.l1_distance da db) < 1e-9
      && tv >= 0.0 && tv <= 1.0 +. 1e-9
      && Dist.tv_distance da da < 1e-12)

let test_earthmover_points () =
  let n = 10 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = Dist.earthmover_line (Dist.point i ~n) (Dist.point j ~n) in
      checkf "em of point masses" (float_of_int (abs (i - j))) d
    done
  done

let test_earthmover_vs_tv =
  qtest "dist: tv <= earthmover <= (n-1) * tv" dist_pair_gen (fun (a, b) ->
      let da = Dist.of_weights a and db = Dist.of_weights b in
      let em = Dist.earthmover_line da db in
      let tv = Dist.tv_distance da db in
      let n = float_of_int (Array.length a) in
      em >= tv -. 1e-9 && em <= ((n -. 1.0) *. tv) +. 1e-9)

let test_expectation () =
  let d = Dist.of_weights [| 1.0; 1.0; 2.0 |] in
  checkf "expectation" 1.25 (Dist.expectation d float_of_int)

let test_of_grad_validation () =
  let g = [| 0.25; 0.5; 0.25 |] in
  let dst = Dist.uniform 3 in
  Dist.of_grad_into g dst;
  check
    Alcotest.(array (float 0.0))
    "into == of_grad"
    (Dist.to_array (Dist.of_grad g))
    (Dist.to_array dst);
  List.iter
    (fun (name, msg, g) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Dist.of_grad g));
      Alcotest.check_raises (name ^ " (into)") (Invalid_argument msg)
        (fun () -> Dist.of_grad_into g (Dist.uniform (Array.length g))))
    [
      ("negative", "Dist.of_grad: negative or NaN entry", [| 0.5; -0.25; 0.75 |]);
      ("NaN", "Dist.of_grad: negative or NaN entry", [| 0.5; Float.nan; 0.5 |]);
      ("last entry", "Dist.of_grad: negative or NaN entry", [| 0.5; 0.5; -1e-9 |]);
      ("not normalized", "Dist.of_grad: not normalized", [| 0.5; 0.25; 0.5 |]);
    ];
  Alcotest.check_raises "empty" (Invalid_argument "Dist.of_grad: empty")
    (fun () -> ignore (Dist.of_grad [||]));
  (* both coupling entries check sizes and [current] before they read a
     distribution or draw, so they raise their own messages and a
     rejected call leaves the rng untouched *)
  let rng = Rng.create 21 in
  let d3 = Dist.uniform 3 and d5 = Dist.uniform 5 in
  List.iter
    (fun (name, msg, current, old_dist, new_dist) ->
      Alcotest.check_raises name
        (Invalid_argument ("Dist.resample_coupled: " ^ msg))
        (fun () ->
          ignore (Dist.resample_coupled rng ~current ~old_dist ~new_dist));
      Alcotest.check_raises (name ^ " (u)")
        (Invalid_argument ("Dist.resample_coupled_u: " ^ msg))
        (fun () ->
          ignore
            (Dist.resample_coupled_u rng ~u:0.5 ~current ~old_dist ~new_dist)))
    [
      ("size mismatch, current past the old one", "size mismatch", 4, d3, d5);
      ("size mismatch, current past the new one", "size mismatch", 4, d5, d3);
      ("size mismatch", "size mismatch", 0, d3, d5);
      ("negative current", "current out of range", -1, d3, d3);
      ("current past the end", "current out of range", 3, d3, d3);
    ];
  List.iter
    (fun u ->
      Alcotest.check_raises
        (Printf.sprintf "u = %g" u)
        (Invalid_argument "Dist.resample_coupled_u: u outside [0, 1)")
        (fun () ->
          ignore
            (Dist.resample_coupled_u rng ~u ~current:0 ~old_dist:d3
               ~new_dist:d3)))
    [ -0.25; 1.0; Float.nan ];
  check Alcotest.int64 "rejected calls draw nothing"
    (Rng.bits64 (Rng.create 21))
    (Rng.bits64 rng)

(* --- Binc: block decoder == channel decoder --------------------------- *)

(* The zero-copy ingest path stands on one claim: Binc.decode_varints over
   a region and input_varint_opt over a channel are the same decoder —
   same values, same clean-EOF/torn-tail split, for any byte sequence and
   any block size.  These properties pin that down; Source/Trace_codec
   inherit the guarantee wholesale. *)

let encode_varints vals =
  let b = Buffer.create 64 in
  List.iter (Binc.add_varint b) vals;
  Buffer.contents b

(* Decode everything the channel reader can: (values, torn?) where [torn]
   records an Invalid_argument mid-varint (vs a clean end-of-stream). *)
let channel_decode s =
  let path = Filename.temp_file "rbgp_binc" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let acc = ref [] and torn = ref false in
  (try
     let continue = ref true in
     while !continue do
       match Binc.input_varint_opt ic with
       | Some v -> acc := v :: !acc
       | None -> continue := false
     done
   with Invalid_argument _ -> torn := true);
  (List.rev !acc, !torn)

(* Same contract through the block decoder, pulling [block] values per
   call — crossing frame boundaries at every block size exercises the
   parked-cursor torn-tail logic. *)
let region_decode ~block s =
  let r = Binc.region_of_string s in
  let out = Array.make block 0 in
  let acc = ref [] and torn = ref false in
  (try
     let continue = ref true in
     while !continue do
       let got = Binc.decode_varints r out ~limit:block in
       if got = 0 then continue := false
       else
         for j = 0 to got - 1 do
           acc := out.(j) :: !acc
         done
     done
   with Invalid_argument _ -> torn := true);
  (List.rev !acc, !torn)

(* And through the one-value region reads (the Source.next mmap path). *)
let region_decode_singles s =
  let r = Binc.region_of_string s in
  let acc = ref [] and torn = ref false in
  (try
     while not (Binc.region_at_end r) do
       acc := Binc.region_read_varint r :: !acc
     done
   with Invalid_argument _ -> torn := true);
  (List.rev !acc, !torn)

let decoded = Alcotest.(pair (list int) bool)

(* boundary-heavy value generator: continuation-byte edges and the 63-bit
   range edges show up in most cases, not once in a blue moon *)
let varint_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, int_range 0 300);
        ( 3,
          oneofl
            [ 0; 1; 127; 128; 16383; 16384; 2097151; 2097152; max_int - 1;
              max_int ] );
        (2, int_range 0 max_int);
      ])

let varints_gen = QCheck2.Gen.(list_size (int_range 0 40) varint_gen)

let test_binc_parity =
  qtest ~count:150 "binc: block decode == channel decode (clean streams)"
    QCheck2.Gen.(pair varints_gen (int_range 1 7))
    (fun (vals, block) ->
      let s = encode_varints vals in
      channel_decode s = (vals, false)
      && region_decode ~block s = (vals, false)
      && region_decode_singles s = (vals, false))

let test_binc_torn_parity =
  qtest ~count:200 "binc: torn tails agree with the channel reader"
    QCheck2.Gen.(pair (pair varints_gen (int_range 1 5)) (float_bound_inclusive 1.0))
    (fun ((vals, block), frac) ->
      let s = encode_varints vals in
      let cut = int_of_float (frac *. float_of_int (String.length s)) in
      let s = String.sub s 0 (min cut (String.length s)) in
      let reference = channel_decode s in
      region_decode ~block s = reference
      && region_decode_singles s = reference)

let test_binc_boundaries () =
  let vals = [ 0; 1; 127; 128; 16383; 16384; 2097151; 2097152; max_int ] in
  let s = encode_varints vals in
  check decoded "channel decodes boundary values" (vals, false)
    (channel_decode s);
  check decoded "block decoder matches" (vals, false) (region_decode ~block:3 s);
  (* dropping the last byte tears the final (multi-byte) varint: complete
     frames are still delivered, then both decoders raise *)
  let torn = String.sub s 0 (String.length s - 1) in
  let expect = (List.filteri (fun i _ -> i < List.length vals - 1) vals, true) in
  check decoded "channel reports the torn tail" expect (channel_decode torn);
  check decoded "block decoder reports the same torn tail" expect
    (region_decode ~block:4 torn);
  check decoded "single-value region reads agree" expect
    (region_decode_singles torn)

let test_binc_zigzag_region () =
  let vals = [ 0; -1; 1; -64; 64; 123456789; -123456789; (1 lsl 61) - 1;
               -(1 lsl 61) ] in
  let b = Buffer.create 64 in
  List.iter (Binc.add_zigzag b) vals;
  let r = Binc.region_of_string (Buffer.contents b) in
  List.iter
    (fun v ->
      Alcotest.(check int) "zigzag round-trips through the region" v
        (Binc.region_read_zigzag r))
    vals;
  Alcotest.(check bool) "region fully consumed" true (Binc.region_at_end r)

(* --- Union_find ------------------------------------------------------ *)

module Uf = Rbgp_util.Union_find

let test_uf_basic () =
  let uf = Uf.create 8 in
  Alcotest.(check int) "initial components" 8 (Uf.components uf);
  ignore (Uf.union uf 0 1);
  ignore (Uf.union uf 2 3);
  Alcotest.(check bool) "joined" true (Uf.same uf 0 1);
  Alcotest.(check bool) "separate" false (Uf.same uf 1 2);
  ignore (Uf.union uf 1 3);
  Alcotest.(check bool) "transitively joined" true (Uf.same uf 0 2);
  Alcotest.(check int) "sizes" 4 (Uf.size uf 3);
  Alcotest.(check int) "components" 5 (Uf.components uf);
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3 ] (Uf.members uf 0)

let test_uf_props =
  qtest ~count:200 "union-find: sizes sum to n, same is an equivalence"
    QCheck2.Gen.(
      int_range 2 30 >>= fun n ->
      list_size (int_range 0 60) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >|= fun ops -> (n, ops))
    (fun (n, ops) ->
      let uf = Uf.create n in
      List.iter (fun (a, b) -> ignore (Uf.union uf a b)) ops;
      let roots = Hashtbl.create 8 in
      for i = 0 to n - 1 do
        let r = Uf.find uf i in
        Hashtbl.replace roots r (1 + Option.value ~default:0 (Hashtbl.find_opt roots r))
      done;
      let total = Hashtbl.fold (fun _ c acc -> acc + c) roots 0 in
      let sizes_ok =
        Hashtbl.fold
          (fun r c acc -> acc && Uf.size uf r = c)
          roots true
      in
      total = n && sizes_ok && Hashtbl.length roots = Uf.components uf)

(* --- Stats ----------------------------------------------------------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "mean" 2.5 (Stats.mean xs);
  checkf "variance" (5.0 /. 3.0) (Stats.variance xs);
  checkf "median" 2.5 (Stats.median xs);
  checkf "q0" 1.0 (Stats.quantile xs 0.0);
  checkf "q1" 4.0 (Stats.quantile xs 1.0);
  checkf "min" 1.0 (Stats.min xs);
  checkf "max" 4.0 (Stats.max xs)

let test_linear_fit () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let f = Stats.linear_fit xs ys in
  checkf "slope" 2.0 f.Stats.slope;
  checkf "intercept" 1.0 f.Stats.intercept;
  checkf "r2" 1.0 f.Stats.r2

let test_loglog_fit () =
  let xs = [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
  let ys = Array.map (fun x -> 3.0 *. x *. x) xs in
  let f = Stats.loglog_fit xs ys in
  checkf "exponent" 2.0 f.Stats.slope

let test_log_x_fit () =
  let xs = [| 2.0; 4.0; 8.0; 16.0 |] in
  let ys = Array.map (fun x -> 5.0 *. log x) xs in
  let f = Stats.log_x_fit xs ys in
  checkf "log slope" 5.0 f.Stats.slope

(* --- Tbl ------------------------------------------------------------- *)

let test_tbl_render () =
  let t = Rbgp_util.Tbl.create ~headers:[ "name"; "value" ] in
  Rbgp_util.Tbl.add_row t [ "alpha"; "1.5" ];
  Rbgp_util.Tbl.add_rule t;
  Rbgp_util.Tbl.add_row t [ "beta"; "2" ];
  let s = Rbgp_util.Tbl.render t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header and rows" true
    (contains "name" s && contains "alpha" s && contains "beta" s)

let test_tbl_bad_row () =
  let t = Rbgp_util.Tbl.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Tbl.add_row: wrong number of cells")
    (fun () -> Rbgp_util.Tbl.add_row t [ "only-one" ])

let test_tbl_cells () =
  Alcotest.(check string) "int-like float" "3" (Rbgp_util.Tbl.cell_f 3.0);
  Alcotest.(check string) "fractional" "3.142" (Rbgp_util.Tbl.cell_f 3.1415);
  Alcotest.(check string) "int" "42" (Rbgp_util.Tbl.cell_i 42)

(* --- state words, exact floats, the monotonic clock ---------------- *)

let test_rng_save_load () =
  let a = Rng.create 99 in
  for _ = 1 to 37 do
    ignore (Rng.bits64 a)
  done;
  let buf = Buffer.create 32 in
  Rng.save buf a;
  Alcotest.(check int) "four 8-byte words" 32 (Buffer.length buf);
  let b = Rng.create 1 in
  Rng.load (Binc.reader (Buffer.contents buf)) b;
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Rng.bits64 a) (Rng.bits64 b)
  done;
  match Rng.load (Binc.reader (String.make 32 '\000')) b with
  | () -> Alcotest.fail "all-zero state accepted"
  | exception Invalid_argument _ -> ()

let test_binc_exact_floats () =
  let values =
    [ 0.0; -0.0; 1.0; 0.1; -3.5e-310; Float.max_float; Float.min_float;
      Float.infinity; Float.neg_infinity; Float.nan; Float.pi ]
  in
  let buf = Buffer.create 64 in
  List.iter (Binc.add_float buf) values;
  let r = Binc.reader (Buffer.contents buf) in
  List.iter
    (fun v ->
      Alcotest.(check int64)
        (Printf.sprintf "bits of %h" v)
        (Int64.bits_of_float v)
        (Int64.bits_of_float (Binc.read_float r)))
    values;
  Alcotest.(check bool) "consumed exactly" true (Binc.at_end r)

let test_clock_monotonic () =
  let prev = ref (Rbgp_util.Clock.now_ns ()) in
  for i = 1 to 100_000 do
    let t = Rbgp_util.Clock.now_ns () in
    if t < !prev then
      Alcotest.failf "read %d went backwards: %d after %d" i t !prev;
    prev := t
  done

let () =
  Alcotest.run "rbgp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "save/load continues the stream" `Quick
            test_rng_save_load;
        ] );
      ( "clock",
        [
          Alcotest.test_case "non-decreasing over 1e5 reads" `Quick
            test_clock_monotonic;
        ] );
      ( "smin",
        [
          test_smin_bounds;
          test_smin_grad_dist;
          test_smin_growth;
          test_smin_grad_stability;
          test_smin_c_bounds;
          test_smin_c_grad_stability;
          test_smin_sub_consistency;
          Alcotest.test_case "huge counts stable" `Quick test_smin_huge_counts;
        ] );
      ( "dist",
        [
          test_dist_normalized;
          Alcotest.test_case "sample support" `Quick test_dist_sample_support;
          Alcotest.test_case "sample frequencies" `Quick test_dist_sample_frequencies;
          Alcotest.test_case "coupling marginal" `Quick test_coupling_marginal;
          Alcotest.test_case "coupling movement" `Quick test_coupling_movement;
          test_tv_l1;
          Alcotest.test_case "earthmover points" `Quick test_earthmover_points;
          test_earthmover_vs_tv;
          Alcotest.test_case "expectation" `Quick test_expectation;
          Alcotest.test_case "of_grad validation" `Quick test_of_grad_validation;
        ] );
      ( "binc",
        [
          test_binc_parity;
          test_binc_torn_parity;
          Alcotest.test_case "boundary values" `Quick test_binc_boundaries;
          Alcotest.test_case "zigzag region reads" `Quick
            test_binc_zigzag_region;
          Alcotest.test_case "floats travel as exact bits" `Quick
            test_binc_exact_floats;
        ] );
      ( "union-find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          test_uf_props;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "loglog fit" `Quick test_loglog_fit;
          Alcotest.test_case "log-x fit" `Quick test_log_x_fit;
        ] );
      ( "tbl",
        [
          Alcotest.test_case "render" `Quick test_tbl_render;
          Alcotest.test_case "bad row" `Quick test_tbl_bad_row;
          Alcotest.test_case "cells" `Quick test_tbl_cells;
        ] );
    ]
