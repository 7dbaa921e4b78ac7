module Dist = Rbgp_util.Dist
module Rng = Rbgp_util.Rng
module Smin_weights = Rbgp_util.Smin_weights

type geometry = Line of int | Ring of { n : int; k : int }

type t = {
  geometry : geometry;
  size : int;  (* edges of the geometry *)
  cap : int;  (* the most vertices an interval holds *)
  threshold : float;  (* 1 - delta_bar *)
  counts : float array;  (* the caller's, read at growth *)
  rng : Rng.t;
  mutable first : int;  (* first vertex *)
  mutable width : int;  (* vertices; the edges are first .. first + width - 2 *)
  mutable position : int;  (* the current edge *)
  mutable weights : Smin_weights.t;
      (* grad smin over the interval's edge counts, in local order *)
  mutable rank : int;
}

(* The interval's edges in local order, scaled by their number as the
   dense grad smin_c of the edge counts is. *)
let weights_of counts ~first ~width =
  let m = width - 1 and size = Array.length counts in
  Smin_weights.create
    ~c:(Float.max 1.0 (float_of_int m))
    (Array.init m (fun j -> counts.((first + j) mod size)))

let create geometry ?(delta_bar = 14.0 /. 15.0) ~counts rng start =
  let size, cap =
    match geometry with
    | Line k ->
        if k <= 0 then
          invalid_arg "Interval_growing.create: k must be positive";
        (k, k + 1)
    | Ring { n; k } -> (n, Stdlib.min (k + 1) n)
  in
  if not (delta_bar > 0.5 && delta_bar < 1.0) then
    invalid_arg "Interval_growing.create: delta_bar out of (1/2, 1)";
  if start < 0 || start >= size then
    invalid_arg "Interval_growing.create: start edge out of range";
  if Array.length counts <> size then
    invalid_arg "Interval_growing.create: one count per edge";
  {
    geometry;
    size;
    cap;
    threshold = 1.0 -. delta_bar;
    counts;
    rng;
    first = start;
    width = 2;
    position = start;
    weights = weights_of counts ~first:start ~width:2;
    rank = 0;
  }

let line ~k ?delta_bar ?start rng =
  let start = match start with Some s -> s | None -> Game.start_edge ~k in
  create (Line k) ?delta_bar ~counts:(Array.make k 0.0) rng start

let local t e =
  let d = (e - t.first) mod t.size in
  if d < 0 then d + t.size else d

let holds t e = local t e < t.width - 1

let step t e =
  let from = local t t.position in
  let to_ = Smin_weights.step t.weights t.rng (local t e) from in
  t.position <- (t.first + to_) mod t.size;
  abs (to_ - from)

let due t =
  t.width < t.cap
  && float_of_int (Smin_weights.min_count t.weights)
     >= t.threshold *. float_of_int t.width

let double t =
  let w = t.width in
  let desired = Stdlib.min (2 * w) t.cap in
  let first = t.first - ((desired - w) / 2) in
  t.first <-
    (match t.geometry with
    | Line _ -> Stdlib.max 0 (Stdlib.min first (t.size + 1 - desired))
    | Ring _ -> (first + t.size) mod t.size);
  t.width <- desired;
  t.rank <- t.rank + 1

let resample t =
  let from = local t t.position in
  t.weights <- weights_of t.counts ~first:t.first ~width:t.width;
  let to_ = Dist.sample t.rng (Smin_weights.dist t.weights) in
  t.position <- (t.first + to_) mod t.size;
  abs (to_ - from)

let player t =
  let hit = ref 0.0 and move = ref 0.0 in
  let serve e =
    if e < 0 || e >= t.size then
      invalid_arg "Interval_growing.serve: edge out of range";
    if e = t.position then hit := !hit +. 1.0;
    t.counts.(e) <- t.counts.(e) +. 1.0;
    if holds t e then move := !move +. float_of_int (step t e);
    while due t do
      double t;
      move := !move +. float_of_int (resample t)
    done
  in
  {
    Game.position = (fun () -> t.position);
    serve;
    hit_cost = (fun () -> !hit);
    move_cost = (fun () -> !move);
  }

let position t = t.position
let first t = t.first
let width t = t.width
let rank t = t.rank

let restore t ~first ~width ~position ~rank =
  t.first <- first;
  t.width <- width;
  t.position <- position;
  t.rank <- rank;
  t.weights <- weights_of t.counts ~first ~width
