module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost

(* [sc] is the caller's DP scratch, shared by every window of a call *)
let windowed sc (inst : Instance.t) trace ~window =
  if window < 1 then invalid_arg "Dynamic_heuristic.windowed: window >= 1";
  let steps = Array.length trace in
  let cost = Cost.zero () in
  let n = inst.Instance.n in
  let prev = ref inst.Instance.initial in
  let t = ref 0 in
  while !t < steps do
    let len = Int.min window (steps - !t) in
    let sol = Static_opt.segmented_window sc trace ~pos:!t ~len in
    (* [segmented] prices migration against the instance's initial
       assignment; re-price against the schedule's current one and keep the
       cheaper of (move to the chunk optimum) vs (stay where we are) *)
    let candidate = sol.Static_opt.assignment in
    let move_cost = ref 0 in
    Array.iteri
      (fun p s -> if s <> !prev.(p) then incr move_cost)
      candidate;
    let stay_total = ref 0 in
    for i = !t to !t + len - 1 do
      let e = trace.(i) in
      if !prev.(e) <> !prev.((e + 1) mod n) then incr stay_total
    done;
    let move_total = !move_cost + sol.Static_opt.crossing in
    if move_total < !stay_total then begin
      cost.Cost.mig <- cost.Cost.mig + !move_cost;
      cost.Cost.comm <- cost.Cost.comm + sol.Static_opt.crossing;
      prev := candidate
    end
    else cost.Cost.comm <- cost.Cost.comm + !stay_total;
    t := !t + len
  done;
  cost

let best (inst : Instance.t) trace ?windows () =
  let steps = Array.length trace in
  let candidates =
    match windows with
    | Some l -> l
    | None ->
        let rec grid w acc =
          if w >= steps then List.rev (steps :: acc) else grid (w * 4) (w :: acc)
        in
        if steps = 0 then [ 1 ] else grid 64 []
  in
  let sc = Static_opt.scratch inst in
  let scored =
    List.map
      (fun w -> (w, windowed sc inst trace ~window:(Int.max 1 w)))
      candidates
  in
  match scored with
  | [] -> invalid_arg "Dynamic_heuristic.best: no window candidates"
  | first :: rest ->
      List.fold_left
        (fun (bw, bc) (w, c) ->
          if Cost.total c < Cost.total bc then (w, c) else (bw, bc))
        first rest
