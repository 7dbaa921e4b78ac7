module Binc = Rbgp_util.Binc

type t = {
  name : string;
  metric : Metric.t;
  mutable state : int;
  mutable hit : float;
  mutable move : float;
  mutable steps : int;
  next : int -> int -> int;
  save : (Buffer.t -> unit) option;
  load : (Binc.reader -> unit) option;
}

type factory = Metric.t -> start:int -> rng:Rbgp_util.Rng.t -> t

let make ~name ~metric ~start ~next =
  Metric.check_state metric start;
  {
    name; metric; state = start; hit = 0.0; move = 0.0; steps = 0; next;
    save = None; load = None;
  }

let with_state ~save ~load t = { t with save = Some save; load = Some load }

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

(* hit and move accumulate whole units (a hit is 1, a move on either
   metric is an integer distance), so both travel as varint counts *)
let no_hook who t =
  invalid_arg (Printf.sprintf "Mts.%s: solver %s has no state hook" who t.name)

let snapshot buf t =
  match t.save with
  | None -> no_hook "snapshot" t
  | Some save ->
      Binc.add_varint buf t.state;
      Binc.add_varint buf (int_of_float t.hit);
      Binc.add_varint buf (int_of_float t.move);
      Binc.add_varint buf t.steps;
      save buf

let read_count r =
  let v = Binc.read_varint r in
  if v < 0 then invalid_arg "Mts: negative count in snapshot";
  v

let restore r t =
  match t.load with
  | None -> no_hook "restore" t
  | Some load ->
      let state = Binc.read_varint r in
      Metric.check_state t.metric state;
      let hit = read_count r in
      let move = read_count r in
      let steps = read_count r in
      t.state <- state;
      t.hit <- float_of_int hit;
      t.move <- float_of_int move;
      t.steps <- steps;
      load r
