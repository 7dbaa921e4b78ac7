type t = Line of int | Uniform of int

let size = function Line s | Uniform s -> s

let check_size s =
  if s <= 0 then invalid_arg "Metric: state count must be positive"

let distance t i j =
  (match t with Line s | Uniform s -> check_size s);
  let s = size t in
  if i < 0 || i >= s || j < 0 || j >= s then
    invalid_arg "Metric.distance: state out of range";
  match t with
  | Line _ -> abs (i - j)
  | Uniform _ -> if i = j then 0 else 1

let diameter = function
  | Line s ->
      check_size s;
      s - 1
  | Uniform s ->
      check_size s;
      if s > 1 then 1 else 0

let check_state t i =
  if i < 0 || i >= size t then invalid_arg "Metric: state out of range"
