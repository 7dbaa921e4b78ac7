type t = {
  n : int;
  k' : int;
  ell' : int;
  shift : int;
  widths : int array;
}

let make ~n ~k ~epsilon ~shift =
  if n < 2 then invalid_arg "Intervals.make: n must be >= 2";
  if k <= 0 then invalid_arg "Intervals.make: k must be positive";
  if epsilon <= 0.0 then invalid_arg "Intervals.make: epsilon must be positive";
  if shift < 0 || shift >= n then invalid_arg "Intervals.make: shift out of [0, n)";
  let k' = int_of_float (Float.ceil ((1.0 +. epsilon) *. float_of_int k)) in
  let k' = Stdlib.min k' n in
  (* as many intervals as possible while (a) targeting width k' and
     (b) keeping every width at least k+1, so that any balanced schedule
     still has a cut edge inside every interval *)
  let ell' = Stdlib.max 1 (Stdlib.min ((n + k' - 1) / k') (n / (k + 1))) in
  (* near-equal widths: the first [n mod ell'] intervals get one extra *)
  let base_w = n / ell' and rem = n mod ell' in
  let widths = Array.init ell' (fun i -> base_w + if i < rem then 1 else 0) in
  { n; k'; ell'; shift; widths }

let check_interval t i =
  if i < 0 || i >= t.ell' then invalid_arg "Intervals: interval index out of range"

let width t i =
  check_interval t i;
  t.widths.(i)

let base t i =
  check_interval t i;
  let off = ref 0 in
  for j = 0 to i - 1 do
    off := !off + t.widths.(j)
  done;
  (t.shift + !off) mod t.n

let to_global t i local =
  check_interval t i;
  if local < 0 || local >= t.widths.(i) then
    invalid_arg "Intervals.to_global: local edge out of range";
  (base t i + local) mod t.n

let locate t e =
  if e < 0 || e >= t.n then invalid_arg "Intervals.locate: edge out of range";
  let rel = (((e - t.shift) mod t.n) + t.n) mod t.n in
  let rec go i acc =
    if i >= t.ell' then invalid_arg "Intervals.locate: internal error"
    else if rel < acc + t.widths.(i) then (i, rel - acc)
    else go (i + 1) (acc + t.widths.(i))
  in
  go 0 0

let slices_of_cuts t cuts =
  if Array.length cuts <> t.ell' then
    invalid_arg "Intervals.slices_of_cuts: need one cut per interval";
  Array.iteri
    (fun i c ->
      if fst (locate t c) <> i then
        invalid_arg "Intervals.slices_of_cuts: cut outside its interval")
    cuts;
  if t.ell' = 1 then [| (0, Segment.whole ~n:t.n) |]
  else
    Array.init t.ell' (fun i ->
        let a = cuts.(i) and b = cuts.((i + 1) mod t.ell') in
        (* disjoint interval ranges make a <> b and keep cuts in cyclic
           order, so the slice (a, b] is never empty *)
        (i, Segment.of_endpoints ~n:t.n ((a + 1) mod t.n) b))

let max_slice_len t =
  if t.ell' = 1 then t.n
  else begin
    let worst = ref 0 in
    for i = 0 to t.ell' - 1 do
      let pair = t.widths.(i) + t.widths.((i + 1) mod t.ell') - 1 in
      if pair > !worst then worst := pair
    done;
    !worst
  end
