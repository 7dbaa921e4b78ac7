(* Scaled smooth minimum (log-sum-exp of negated inputs) and its gradient,
   numerically stabilized by shifting with the true minimum: with
   m = min_i x_i / c,
     smin_c x = c (m - ln (sum_i e^(m - x_i / c)))
   so every exponent is <= 0 and no overflow can occur. *)

let check_c c = if not (c >= 1.0) then invalid_arg "Smin: scale c must be >= 1"

let grad_c_into ~c x out =
  check_c c;
  let n = Array.length x in
  if n = 0 then invalid_arg "Smin.grad_c_into: empty vector";
  if Array.length out <> n then invalid_arg "Smin.grad_c_into: bad output size";
  (* inline the scaling to avoid an intermediate array *)
  let m = ref (x.(0) /. c) in
  for i = 1 to n - 1 do
    let v = x.(i) /. c in
    if v < !m then m := v
  done;
  let mv = !m in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let v = exp (mv -. (x.(i) /. c)) in
    out.(i) <- v;
    acc := !acc +. v
  done;
  let z = !acc in
  for i = 0 to n - 1 do
    out.(i) <- out.(i) /. z
  done

let grad_c ~c x =
  let out = Array.make (Array.length x) 0.0 in
  grad_c_into ~c x out;
  out

let smin_sub ~c x ~lo ~hi =
  check_c c;
  if hi < lo then invalid_arg "Smin.smin_sub: empty range";
  let m = ref (x.(lo) /. c) in
  for i = lo + 1 to hi do
    let v = x.(i) /. c in
    if v < !m then m := v
  done;
  let mv = !m in
  let acc = ref 0.0 in
  for i = lo to hi do
    acc := !acc +. exp (mv -. (x.(i) /. c))
  done;
  c *. (mv -. log !acc)

let grad_sub_into ~c x ~lo ~hi out =
  check_c c;
  if hi < lo then invalid_arg "Smin.grad_sub_into: empty range";
  if Array.length out <> hi - lo + 1 then
    invalid_arg "Smin.grad_sub_into: bad output size";
  let m = ref (x.(lo) /. c) in
  for i = lo + 1 to hi do
    let v = x.(i) /. c in
    if v < !m then m := v
  done;
  let mv = !m in
  let acc = ref 0.0 in
  for i = lo to hi do
    let v = exp (mv -. (x.(i) /. c)) in
    out.(i - lo) <- v;
    acc := !acc +. v
  done;
  let z = !acc in
  for i = 0 to hi - lo do
    out.(i) <- out.(i) /. z
  done
