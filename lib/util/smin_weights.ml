(* The O(1) miss step's constants, derived in DESIGN.md ("The O(1) miss
   step").  On a miss that keeps the minimum, with the charged weight not
   risen, the current state's weight at least [weight_floor] and at most
   [max_fast_states] states, the dense step's stay probability is at
   least 1 - (4s + 8) 2^-53, above the stay floor 1 - 2^-20; so any
   uniform below the floor stays there too.  The uniform is drawn as its
   53 bits (Rng.bits53, u = bits * 2^-53), so the test compares the bits
   with the floor times 2^53, exactly. *)
let stay_floor_bits = (1 lsl 53) - (1 lsl 33)
let weight_floor = 0x1p-960
let max_fast_states = 1 lsl 26

(* An all-float record is stored flat: updating it does not allocate. *)
type low = { mutable m : float; mutable min_count : float }

(* grad smin_c x in factored form: weights.(i) = exp (m - x.(i) / c) for
   the smallest scaled count m = min_count / c, and [at_min] states hold
   min_count.  Rounding is monotone, so m is the least x.(i) / c: these
   are the exact floats Smin.grad_c_into computes from x, and every
   distribution built below matches the dense form bit for bit. *)
type t = {
  c : float;
  x : float array;
  weights : float array;
  low : low;
  mutable at_min : int;
  grad : float array;  (* scratch gradient *)
  (* [carried] is the distribution of the weights as they stand whenever
     [fresh] holds: the old distribution of the next dense step.  An O(1)
     step changes a weight without building any distribution, so it
     clears [fresh], and the next dense step rebuilds [carried] first. *)
  mutable carried : Dist.t;
  mutable spare : Dist.t;
  mutable fresh : bool;
  (* beyond the state count the bound covers, no uniform in [0, 1) lies
     below the threshold: the O(1) path is off *)
  fast_below : int;
}

let rescale t =
  let x = t.x and c = t.c in
  let s = Array.length x in
  let lo = ref x.(0) in
  for i = 1 to s - 1 do
    if x.(i) < !lo then lo := x.(i)
  done;
  let lo = !lo in
  let m = lo /. c in
  t.low.m <- m;
  t.low.min_count <- lo;
  t.at_min <- 0;
  for i = 0 to s - 1 do
    t.weights.(i) <- exp (m -. (x.(i) /. c));
    if x.(i) = lo then t.at_min <- t.at_min + 1
  done

let create ~c x =
  let s = Array.length x in
  if s = 0 then invalid_arg "Smin_weights.create: no states";
  if not (c >= 1.0) then invalid_arg "Smin_weights.create: scale must be >= 1";
  let t =
    {
      c;
      x;
      weights = Array.make s 0.0;
      low = { m = 0.0; min_count = 0.0 };
      at_min = 0;
      grad = Array.make s 0.0;
      carried = Dist.uniform s;
      spare = Dist.uniform s;
      fresh = false;
      fast_below = (if s <= max_fast_states then stay_floor_bits else 0);
    }
  in
  rescale t;
  t

let counts t = t.x

let refresh t =
  rescale t;
  t.fresh <- false

let min_count t = int_of_float t.low.min_count

(* Whenever a distribution is built, the sum, the division into the
   scratch gradient and of_grad_into's check and renormalisation run over
   the same floats in the same index order as Smin.grad_c_into followed
   by Dist.of_grad_into. *)
let normalize_into t dst =
  let s = Array.length t.weights in
  let z = ref 0.0 in
  for i = 0 to s - 1 do
    z := !z +. t.weights.(i)
  done;
  let z = !z in
  for i = 0 to s - 1 do
    t.grad.(i) <- t.weights.(i) /. z
  done;
  Dist.of_grad_into t.grad dst

let dist t =
  if not t.fresh then begin
    normalize_into t t.carried;
    t.fresh <- true
  end;
  t.carried

(* the uniform travels as its bits: only a dense step, which hands it to
   Dist, builds the float *)
let dense t rng bits current =
  let new_dist = t.spare in
  normalize_into t new_dist;
  let u = float_of_int bits *. 0x1p-53 in
  let state =
    Dist.resample_coupled_u rng ~u ~current ~old_dist:t.carried ~new_dist
  in
  t.spare <- t.carried;
  t.carried <- new_dist;
  t.fresh <- true;
  state

(* A unit task on e raises x.(e) alone, so one weight changes — unless it
   lifts the last state at the minimum: then m rises and every weight is
   recomputed against the new m.  Every step draws the coupling's stay
   uniform first; a dense step rebuilds a stale [carried] from the
   weights before the task changes them. *)
let step t rng e current =
  let old = t.x.(e) in
  let raised = old +. 1.0 in
  t.x.(e) <- raised;
  let low = t.low in
  if old = low.min_count && raised > low.min_count then
    t.at_min <- t.at_min - 1;
  let bits = Rng.bits53 rng in
  if t.at_min = 0 then begin
    if not t.fresh then normalize_into t t.carried;
    rescale t;
    dense t rng bits current
  end
  else begin
    let w' = exp (low.m -. (raised /. t.c)) in
    if
      e <> current && bits < t.fast_below
      && w' <= t.weights.(e)
      && t.weights.(current) >= weight_floor
    then begin
      (* a miss that keeps m: only w_e changes and it can only fall, so
         the current state's probability can only grow *)
      t.weights.(e) <- w';
      t.fresh <- false;
      current
    end
    else begin
      if not t.fresh then normalize_into t t.carried;
      t.weights.(e) <- w';
      dense t rng bits current
    end
  end
