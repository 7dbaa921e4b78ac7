(* The bench's gate table: every threshold the bench enforces is in
   [table] below, and nowhere else.  The bench evaluates each gate on its
   reading, prints the verdicts last, records them in BENCH_8.json and
   exits 1 naming every failure.

   A reading is an interval.  A quantity read once (a component fit's r²,
   a quick table's wall clock) is the point [x, x].  An A/B comparison
   run as P interleaved pairs reads as the median of its P paired values
   with the distribution-free interval for the median, [x_(k), x_(P-k+1)]
   over the sorted values x_(1) <= ... <= x_(P), where k is the largest
   integer with P(Bin(P, 1/2) <= k - 1) <= 0.025: whatever the
   distribution of a pair's value, the interval misses the true median
   with probability at most 5%.  A ceiling passes only when the upper end
   is below it and a floor only when the lower end reaches it, so a
   difference the noise cannot resolve fails instead of passing by luck. *)

type rule =
  | Floor of float  (** the lower end must be at least the bound *)
  | Ceiling of float  (** the upper end must be below the bound *)
  | Every_pair  (** an identity bit that must hold on every pair *)

type gate = { name : string; rule : rule }

let r2 = { name = "r2"; rule = Floor 0.5 }
let e10_quick_s = { name = "e10_quick_s"; rule = Ceiling 5.0 }
let decode_speedup = { name = "decode_speedup"; rule = Floor 5.0 }
let never_move_rps = { name = "never_move_rps"; rule = Floor 1e6 }
let socket_overhead = { name = "socket_overhead"; rule = Ceiling 0.30 }
let faults_off_overhead = { name = "faults_off_overhead"; rule = Ceiling 0.02 }
let decode_identical = { name = "decode_identical"; rule = Every_pair }
let faults_identical = { name = "faults_identical"; rule = Every_pair }
let socket_identical = { name = "socket_identical"; rule = Every_pair }
let parallel_identical = { name = "parallel_identical"; rule = Every_pair }

let table =
  [
    r2;
    e10_quick_s;
    decode_speedup;
    never_move_rps;
    socket_overhead;
    faults_off_overhead;
    decode_identical;
    faults_identical;
    socket_identical;
    parallel_identical;
  ]

(* --- readings ---------------------------------------------------------- *)

type interval = { lo : float; median : float; hi : float; pairs : int }

type reading =
  | Interval of interval
  | Bits of bool array  (** one identity bit per pair *)

(* The largest k with P(Bin(p, 1/2) <= k - 1) <= 0.025, accumulating the
   binomial terms in log space so that no power of two underflows.  It is
   0 below p = 6, where even P(Bin = 0) exceeds 0.025. *)
let rank p =
  let log_half = -.float_of_int p *. log 2.0 in
  (* [cdf] is P(Bin <= k - 1) and [log_c] is log C(p, k) *)
  let rec go k log_c cdf =
    let cdf = cdf +. exp (log_c +. log_half) in
    if cdf > 0.025 then k
    else
      go (k + 1)
        (log_c +. log (float_of_int (p - k)) -. log (float_of_int (k + 1)))
        cdf
  in
  go 0 0.0 0.0

let point x = { lo = x; median = x; hi = x; pairs = 1 }

(* With fewer than 6 values the interval is unbounded, so every gate on
   it fails. *)
let interval xs =
  let p = Array.length xs in
  if p = 0 then invalid_arg "Gates.interval: no values";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let k = rank p in
  {
    lo = (if k = 0 then neg_infinity else s.(k - 1));
    median =
      (if p mod 2 = 1 then s.(p / 2)
       else (s.((p / 2) - 1) +. s.(p / 2)) /. 2.0);
    hi = (if k = 0 then infinity else s.(p - k));
    pairs = p;
  }

let passes gate reading =
  match (gate.rule, reading) with
  | Floor bound, Interval i -> i.lo >= bound
  | Ceiling bound, Interval i -> i.hi < bound
  | Every_pair, Bits bits -> Array.length bits > 0 && Array.for_all Fun.id bits
  | (Floor _ | Ceiling _), Bits _ | Every_pair, Interval _ ->
      invalid_arg ("Gates.passes: wrong reading for " ^ gate.name)
