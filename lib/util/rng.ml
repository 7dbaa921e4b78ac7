(* xoshiro256++ with splitmix64 seeding.  Splitting is implemented by
   drawing a fresh 256-bit state from the parent through splitmix64 of a
   parent draw, which keeps child streams statistically independent for the
   experiment scales used here. *)

type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64 step: returns the next output and the advanced state. *)
let splitmix64 state =
  let state = Int64.add state 0x9E3779B97F4A7C15L in
  let z = state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (Int64.logxor z (Int64.shift_right_logical z 31), state)

let of_seed64 seed =
  let z0, st = splitmix64 seed in
  let z1, st = splitmix64 st in
  let z2, st = splitmix64 st in
  let z3, _ = splitmix64 st in
  (* xoshiro state must not be all-zero; splitmix64 outputs make that
     astronomically unlikely, but guard anyway. *)
  if Int64.logor (Int64.logor z0 z1) (Int64.logor z2 z3) = 0L then
    { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
  else { s0 = z0; s1 = z1; s2 = z2; s3 = z3 }

let create seed = of_seed64 (Int64.of_int seed)

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let save buf t =
  Binc.add_int64 buf t.s0;
  Binc.add_int64 buf t.s1;
  Binc.add_int64 buf t.s2;
  Binc.add_int64 buf t.s3

let load r t =
  (* read all four words before mutating: a rejected state leaves [t]
     untouched *)
  let s0 = Binc.read_int64 r in
  let s1 = Binc.read_int64 r in
  let s2 = Binc.read_int64 r in
  let s3 = Binc.read_int64 r in
  if Int64.equal (Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3)) 0L then
    invalid_arg "Rng.load: all-zero xoshiro state";
  t.s0 <- s0;
  t.s1 <- s1;
  t.s2 <- s2;
  t.s3 <- s3

let bits64 t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed64 (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub mask (Int64.rem mask bound64) in
  let rec draw () =
    let r = Int64.logand (bits64 t) mask in
    if r > limit then draw () else Int64.to_int (Int64.rem r bound64)
  in
  draw ()

let float t =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let geometric t p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p out of range";
  if p >= 1.0 then 0
  else
    let u = float t in
    (* inverse CDF of the geometric distribution counting failures *)
    int_of_float (Float.of_int 1 *. floor (log1p (-.u) /. log1p (-.p)))

let exponential t rate =
  if not (rate > 0.0) then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.float t) /. rate
