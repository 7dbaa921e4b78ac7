type t = {
  name : string;
  metric : Metric.t;
  mutable state : int;
  mutable hit : float;
  mutable move : float;
  mutable steps : int;
  next : int -> int -> int;
}

type factory = Metric.t -> start:int -> rng:Rbgp_util.Rng.t -> t

let make ~name ~metric ~start ~next =
  Metric.check_state metric start;
  { name; metric; state = start; hit = 0.0; move = 0.0; steps = 0; next }

let name t = t.name
let metric t = t.metric
let state t = t.state

let serve t e =
  if e < 0 || e >= Metric.size t.metric then
    invalid_arg "Mts.serve: task state out of range";
  let s' = t.next e t.state in
  Metric.check_state t.metric s';
  t.move <- t.move +. float_of_int (Metric.distance t.metric t.state s');
  if s' = e then t.hit <- t.hit +. 1.0;
  t.state <- s';
  t.steps <- t.steps + 1;
  s'

let hit_cost t = t.hit
let move_cost t = t.move
let total_cost t = t.hit +. t.move
let steps t = t.steps
