let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter (fun v -> acc := !acc +. ((v -. m) *. (v -. m))) xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

type linfit = { slope : float; intercept : float; r2 : float }

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if not (!sxx > 0.0) then invalid_arg "Stats.linear_fit: degenerate x";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if !syy > 0.0 then !sxy *. !sxy /. (!sxx *. !syy) else 1.0 in
  { slope; intercept; r2 }

let map_positive name f xs =
  Array.map
    (fun v ->
      if not (v > 0.0) then invalid_arg (name ^ ": inputs must be positive");
      f v)
    xs

let loglog_fit xs ys =
  linear_fit (map_positive "Stats.loglog_fit" log xs) (map_positive "Stats.loglog_fit" log ys)
