module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin

(* Recursively assign probability mass to the dyadic sub-intervals of
   [lo, hi]: at each split, the two halves receive mass proportional to
   exp(-smin_c(child)/c_node) where c_node is the parent's width — i.e. a
   multiplicative-weights rule whose learning rate is the inverse of the
   price of switching between the children. *)
let rec fill_mass x lo hi mass out =
  if lo = hi then out.(lo) <- out.(lo) +. mass
  else begin
    let mid = (lo + hi) / 2 in
    let width = float_of_int (hi - lo + 1) in
    let c_node = Float.max 1.0 width in
    let c_child = Float.max 1.0 (c_node /. 2.0) in
    let s_left = Smin.smin_sub ~c:c_child x ~lo ~hi:mid in
    let s_right = Smin.smin_sub ~c:c_child x ~lo:(mid + 1) ~hi in
    (* stable two-way softmax at temperature c_node *)
    let m = Float.min s_left s_right in
    let wl = exp ((m -. s_left) /. c_node) in
    let wr = exp ((m -. s_right) /. c_node) in
    let z = wl +. wr in
    fill_mass x lo mid (mass *. wl /. z) out;
    fill_mass x (mid + 1) hi (mass *. wr /. z) out
  end

let leaf_mass_into x out =
  Array.fill out 0 (Array.length out) 0.0;
  fill_mass x 0 (Array.length x - 1) 1.0 out

let leaf_dist_of x =
  let s = Array.length x in
  let out = Array.make s 0.0 in
  fill_mass x 0 (s - 1) 1.0 out;
  Dist.of_grad out

let solver : Mts.factory =
 fun metric ~start ~rng ->
  (match metric with
  | Metric.Line _ -> ()
  | Metric.Uniform _ ->
      (* the dyadic decomposition is only meaningful on the line *)
      invalid_arg "Hst_mts.solver: requires a line metric");
  let s = Metric.size metric in
  let x = Array.make s 0.0 in
  (* scratch mass buffer plus two rotating distribution buffers (see
     Smin_mw): the recursion still dominates, but the per-request
     allocations are gone *)
  let mass = Array.make s 0.0 in
  let current_dist = ref (Dist.uniform s) in
  let next_dist = ref (Dist.uniform s) in
  leaf_mass_into x mass;
  Dist.of_grad_into mass !current_dist;
  let next e current =
    x.(e) <- x.(e) +. 1.0;
    leaf_mass_into x mass;
    let new_dist = !next_dist in
    Dist.of_grad_into mass new_dist;
    let state =
      Dist.resample_coupled rng ~current ~old_dist:!current_dist ~new_dist
    in
    next_dist := !current_dist;
    current_dist := new_dist;
    state
  in
  Mts.make ~name:"hst-mw" ~metric ~start ~next
    ~save:(fun buf ->
      Rbgp_util.Binc.add_counts buf x;
      Rbgp_util.Rng.save buf rng)
    ~load:(fun r ->
      Rbgp_util.Binc.read_counts r x;
      leaf_mass_into x mass;
      Dist.of_grad_into mass !current_dist;
      Rbgp_util.Rng.load r rng)

let leaf_distribution metric x =
  if Array.length x <> Metric.size metric then
    invalid_arg "Hst_mts.leaf_distribution: size mismatch";
  leaf_dist_of x
