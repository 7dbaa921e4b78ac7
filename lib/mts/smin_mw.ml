module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin
module Rng = Rbgp_util.Rng

let default_scale metric = Float.max 1.0 (float_of_int (Metric.diameter metric))

(* An all-float record is stored flat: updating [m] does not allocate. *)
type minimum = { mutable m : float }

(* The O(1) miss step's constants, derived in DESIGN.md ("The O(1) miss
   step").  On a miss that keeps the minimum, with the
   charged weight not risen, the current state's weight at least
   [weight_floor] and at most [max_fast_states] states, the dense step's
   stay probability is at least 1 - (4s + 8) 2^-53, above the stay floor
   1 - 2^-20; so any uniform below the floor stays there too.  The
   uniform is drawn as its 53 bits (Rng.bits53, u = bits * 2^-53), so the
   test compares the bits with the floor times 2^53, exactly. *)
let stay_floor_bits = (1 lsl 53) - (1 lsl 33)
let weight_floor = 0x1p-960
let max_fast_states = 1 lsl 26

let make_solver ~c metric ~start ~rng =
  let s = Metric.size metric in
  (* grad smin_c x in factored form: x.(i) counts the tasks state i has
     received, scaled.(i) = x.(i) / c, weights.(i) = exp (m - scaled.(i))
     for the smallest scaled cost m, and [at_min] states sit at m.  These
     are the exact floats Smin.grad_c_into computes from x, so the
     distributions below match the dense form bit for bit. *)
  let x = Array.make s 0.0 in
  let scaled = Array.make s 0.0 in
  let weights = Array.make s 0.0 in
  let low = { m = 0.0 } in
  let at_min = ref 0 in
  let rescale () =
    let m = ref scaled.(0) in
    for i = 1 to s - 1 do
      if scaled.(i) < !m then m := scaled.(i)
    done;
    let m = !m in
    low.m <- m;
    at_min := 0;
    for i = 0 to s - 1 do
      weights.(i) <- exp (m -. scaled.(i));
      if scaled.(i) = m then incr at_min
    done
  in
  (* Whenever a distribution is built, the sum, the division into the
     scratch gradient and of_grad_into's check and renormalisation run
     over the same floats in the same index order as Smin.grad_c_into
     followed by Dist.of_grad_into. *)
  let grad = Array.make s 0.0 in
  let normalize_into dst =
    let z = ref 0.0 in
    for i = 0 to s - 1 do
      z := !z +. weights.(i)
    done;
    let z = !z in
    for i = 0 to s - 1 do
      grad.(i) <- weights.(i) /. z
    done;
    Dist.of_grad_into grad dst
  in
  (* [carried] is the distribution of the weights as they stand whenever
     [fresh] holds: the old distribution of the next dense step.  An O(1)
     step changes a weight without building any distribution, so it
     clears [fresh], and the next dense step rebuilds [carried] first. *)
  let carried = ref (Dist.uniform s) and spare = ref (Dist.uniform s) in
  let fresh = ref false in
  rescale ();
  (* beyond the state count the bound covers, no uniform in [0, 1) lies
     below the threshold: the O(1) path is off *)
  let fast_below = if s <= max_fast_states then stay_floor_bits else 0 in
  (* the uniform travels as its bits: only a dense step, which hands it to
     Dist, builds the float *)
  let dense bits current =
    let new_dist = !spare in
    normalize_into new_dist;
    let u = float_of_int bits *. 0x1p-53 in
    let state =
      Dist.resample_coupled_u rng ~u ~current ~old_dist:!carried ~new_dist
    in
    spare := !carried;
    carried := new_dist;
    fresh := true;
    state
  in
  (* A task on e raises x.(e) alone, so one weight changes — unless it
     lifts the last state at the minimum: then m rises and every weight
     is recomputed against the new m.  Every step draws the coupling's
     stay uniform first; a dense step rebuilds a stale [carried] from the
     weights before the task changes them. *)
  let next e current =
    let old = scaled.(e) in
    x.(e) <- x.(e) +. 1.0;
    let v = x.(e) /. c in
    scaled.(e) <- v;
    if old = low.m && v > low.m then decr at_min;
    let bits = Rng.bits53 rng in
    if !at_min = 0 then begin
      if not !fresh then normalize_into !carried;
      rescale ();
      dense bits current
    end
    else begin
      let w' = exp (low.m -. v) in
      if
        e <> current && bits < fast_below && w' <= weights.(e)
        && weights.(current) >= weight_floor
      then begin
        (* a miss that keeps m: only w_e changes and it can only fall, so
           the current state's probability can only grow *)
        weights.(e) <- w';
        fresh := false;
        current
      end
      else begin
        if not !fresh then normalize_into !carried;
        weights.(e) <- w';
        dense bits current
      end
    end
  in
  (* every cache above is a function of x: rebuild them from the counts
     with the same rescale the steps run *)
  let load r =
    Rbgp_util.Binc.read_counts r x;
    for i = 0 to s - 1 do
      scaled.(i) <- x.(i) /. c
    done;
    rescale ();
    fresh := false;
    Rng.load r rng
  in
  Mts.make ~name:(Printf.sprintf "smin-mw(c=%g)" c) ~metric ~start ~next
    ~save:(fun buf ->
      Rbgp_util.Binc.add_counts buf x;
      Rng.save buf rng)
    ~load

let solver_with_scale ~c : Mts.factory =
 fun metric ~start ~rng ->
  if not (c >= 1.0) then invalid_arg "Smin_mw: scale must be >= 1";
  make_solver ~c metric ~start ~rng

let solver : Mts.factory =
 fun metric ~start ~rng -> make_solver ~c:(default_scale metric) metric ~start ~rng

let distribution metric x =
  if Array.length x <> Metric.size metric then
    invalid_arg "Smin_mw.distribution: size mismatch";
  Dist.of_grad (Smin.grad_c ~c:(default_scale metric) x)
