(* xoshiro256++ with splitmix64 seeding.  Splitting is implemented by
   drawing a fresh 256-bit state from the parent through splitmix64 of a
   parent draw, which keeps child streams statistically independent for the
   experiment scales used here.

   The four state words s0..s3 live little-endian in one 32-byte [Bytes]
   at offsets 0, 8, 16 and 24.  [Bytes.get/set_int64_le] are primitives
   that ocamlopt keeps unboxed, so a step allocates nothing, and the
   buffer is byte for byte what {!save} writes. *)

type t = Bytes.t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64 step: returns the next output and the advanced state. *)
let splitmix64 state =
  let state = Int64.add state 0x9E3779B97F4A7C15L in
  let z = state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (Int64.logxor z (Int64.shift_right_logical z 31), state)

let set_words t s0 s1 s2 s3 =
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set_words t s0 s1 s2 s3;
  t

let of_seed64 seed =
  let z0, st = splitmix64 seed in
  let z1, st = splitmix64 st in
  let z2, st = splitmix64 st in
  let z3, _ = splitmix64 st in
  (* xoshiro state must not be all-zero; splitmix64 outputs make that
     astronomically unlikely, but guard anyway. *)
  if Int64.logor (Int64.logor z0 z1) (Int64.logor z2 z3) = 0L then
    of_words 1L 2L 3L 4L
  else of_words z0 z1 z2 z3

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let save buf t = Buffer.add_bytes buf t

let load r t =
  (* read all four words before mutating: a rejected state leaves [t]
     untouched *)
  let s0 = Binc.read_int64 r in
  let s1 = Binc.read_int64 r in
  let s2 = Binc.read_int64 r in
  let s3 = Binc.read_int64 r in
  if Int64.equal (Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3)) 0L then
    invalid_arg "Rng.load: all-zero xoshiro state";
  set_words t s0 s1 s2 s3

(* One xoshiro256++ step.  Inlined into every draw below, so the words
   and the output stay in registers; only [bits64]'s result is boxed. *)
let[@inline] step t =
  let s0 = Bytes.get_int64_le t 0 in
  let s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 in
  let s3 = Bytes.get_int64_le t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let bits64 t = step t

let split t = of_seed64 (step t)

(* Rejection sampling on the low 62 bits to avoid modulo bias.  A 62-bit
   draw fits OCaml's 63-bit int, so the loop runs on native ints and
   allocates nothing; [limit] is [max_int - max_int mod bound], the
   largest draw that keeps every residue equally likely. *)
let rec below t bound limit =
  let r = Int64.to_int (Int64.logand (step t) 0x3FFF_FFFF_FFFF_FFFFL) in
  if r > limit then below t bound limit else r mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound (max_int - (max_int mod bound))

(* The top 53 bits of a draw: a native int, so a caller outside this
   module gets its uniform without the box a returned float needs (dune's
   dev profile compiles libraries with -opaque, so no call into this
   module is inlined). *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let float t = float_of_int (bits53 t) *. 0x1p-53

let bool t = Int64.logand (step t) 1L = 1L

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
