let counts ~k requests =
  let hits = Array.make k 0 in
  Array.iter
    (fun e ->
      if e < 0 || e >= k then invalid_arg "Static_opt: edge out of range";
      hits.(e) <- hits.(e) + 1)
    requests;
  hits

let resolve_start ~k start =
  match start with Some s -> s | None -> Game.start_edge ~k

let static ~k ?start requests =
  let start = resolve_start ~k start in
  let hits = counts ~k requests in
  let best = ref infinity in
  for p = 0 to k - 1 do
    let v = float_of_int (abs (start - p) + hits.(p)) in
    if v < !best then best := v
  done;
  !best
