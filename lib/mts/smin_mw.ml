module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin

let default_scale metric = Float.max 1.0 (float_of_int (Metric.diameter metric))

(* An all-float record is stored flat: updating [m] does not allocate. *)
type minimum = { mutable m : float }

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
  (* scratch gradient plus two rotating distribution buffers, reused by
     every step.  The sum, the division and of_grad_into's check and
     renormalisation run over the same floats in the same index order as
     Smin.grad_c_into followed by Dist.of_grad_into. *)
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
  let current_dist = ref (Dist.uniform s) in
  let next_dist = ref (Dist.uniform s) in
  rescale ();
  normalize_into !current_dist;
  (* A task on e raises x.(e) alone, so one weight changes — unless it
     lifts the last state at the minimum: then m rises and every weight
     is recomputed against the new m. *)
  let next e current =
    let old = scaled.(e) in
    x.(e) <- x.(e) +. 1.0;
    let v = x.(e) /. c in
    scaled.(e) <- v;
    if old = low.m && v > low.m then decr at_min;
    if !at_min = 0 then rescale () else weights.(e) <- exp (low.m -. v);
    let new_dist = !next_dist in
    normalize_into new_dist;
    let state =
      Dist.resample_coupled rng ~current ~old_dist:!current_dist
        ~new_dist
    in
    next_dist := !current_dist;
    current_dist := new_dist;
    state
  in
  (* every cache above is a function of x: rebuild them from the counts
     with the same rescale and normalisation the steps run *)
  let load r =
    Rbgp_util.Binc.read_counts r x;
    for i = 0 to s - 1 do
      scaled.(i) <- x.(i) /. c
    done;
    rescale ();
    normalize_into !current_dist;
    Rbgp_util.Rng.load r rng
  in
  Mts.with_state
    ~save:(fun buf ->
      Rbgp_util.Binc.add_counts buf x;
      Rbgp_util.Rng.save buf rng)
    ~load
  @@ Mts.make ~name:(Printf.sprintf "smin-mw(c=%g)" c) ~metric ~start ~next

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
