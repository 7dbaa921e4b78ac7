module Binc = Rbgp_util.Binc

type t = {
  name : string;
  metric : Metric.t;
  mutable state : int;
  (* hit and move accumulate whole units (a hit is 1, a move on either
     metric is an integer distance): ints, so a step boxes no float *)
  mutable hit : int;
  mutable move : int;
  mutable steps : int;
  next : int -> int -> int;
  save : Buffer.t -> unit;
  load : Binc.reader -> unit;
}

type factory = Metric.t -> start:int -> rng:Rbgp_util.Rng.t -> t

let make ~name ~metric ~start ~next ~save ~load =
  Metric.check_state metric start;
  {
    name; metric; state = start; hit = 0; move = 0; steps = 0; next; save;
    load;
  }

let name t = t.name
let metric t = t.metric
let state t = t.state

let serve t e =
  if e < 0 || e >= Metric.size t.metric then
    invalid_arg "Mts.serve: task state out of range";
  let s' = t.next e t.state in
  Metric.check_state t.metric s';
  t.move <- t.move + Metric.distance t.metric t.state s';
  if s' = e then t.hit <- t.hit + 1;
  t.state <- s';
  t.steps <- t.steps + 1;
  s'

let hit_cost t = float_of_int t.hit
let move_cost t = float_of_int t.move
let total_cost t = float_of_int (t.hit + t.move)
let steps t = t.steps

let snapshot buf t =
  Binc.add_varint buf t.state;
  Binc.add_varint buf t.hit;
  Binc.add_varint buf t.move;
  Binc.add_varint buf t.steps;
  t.save buf

let read_count r =
  let v = Binc.read_varint r in
  if v < 0 then invalid_arg "Mts: negative count in snapshot";
  v

let restore r t =
  let state = Binc.read_varint r in
  Metric.check_state t.metric state;
  let hit = read_count r in
  let move = read_count r in
  let steps = read_count r in
  t.state <- state;
  t.hit <- hit;
  t.move <- move;
  t.steps <- steps;
  t.load r
