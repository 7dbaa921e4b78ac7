module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin
module Rng = Rbgp_util.Rng
module Smin_weights = Rbgp_util.Smin_weights

let default_scale metric = Float.max 1.0 (float_of_int (Metric.diameter metric))

(* The step is Smin_weights.step: the same cached weights and O(1) miss
   step as every Slicing interval's player. *)
let make_solver ~c metric ~start ~rng =
  let w = Smin_weights.create ~c (Array.make (Metric.size metric) 0.0) in
  Mts.make ~metric ~start
    ~next:(fun e current -> Smin_weights.step w rng e current)
    ~save:(fun buf ->
      Rbgp_util.Binc.add_counts buf (Smin_weights.counts w);
      Rng.save buf rng)
    ~load:(fun r ->
      Rbgp_util.Binc.read_counts r (Smin_weights.counts w);
      Smin_weights.refresh w;
      Rng.load r rng)

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
