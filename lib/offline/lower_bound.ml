module Instance = Rbgp_ring.Instance

(* A window's bound is the uniform-metric tracking optimum over its k
   edges with free start (hits plus unit switches), and that optimum is
   phase counting.  Every state's tracking cost is always the running
   minimum or one above it: a request on a state at the minimum lifts it
   one above, and once every state is above the minimum all of them sit
   at minimum + 1, so the minimum grows by one exactly when every edge of
   the window has been requested since the last such moment.  The bound
   is therefore the number of completed phases, where a phase ends once
   each window edge has been requested at least once since it began.

   One pass over the trace counts them for every window at once:
   [stamp.(e)] is the phase (per window) in which edge [e] was last
   requested, and [left.(w)] the edges of window [w] not yet requested in
   its current phase [phase.(w)].  O(1) per request, O(n) space.
   test_offline checks the count against the DP itself. *)
let lb_for_offset (inst : Instance.t) trace offset =
  let n = inst.Instance.n and k = inst.Instance.k in
  let stride = k + 2 in
  let window_count = if n >= stride then n / stride else if n >= k + 1 then 1 else 0 in
  if window_count = 0 then 0
  else begin
    (* window w covers vertices offset + w*stride .. offset + w*stride + k;
       its edges are the first k of those (both endpoints inside). *)
    let window_of_edge = Array.make n (-1) in
    for w = 0 to window_count - 1 do
      let base = (offset + (w * stride)) mod n in
      for j = 0 to k - 1 do
        window_of_edge.((base + j) mod n) <- w
      done
    done;
    let stamp = Array.make n (-1) in
    let phase = Array.make window_count 0 in
    let left = Array.make window_count k in
    Array.iter
      (fun e ->
        let w = window_of_edge.(e) in
        if w >= 0 && stamp.(e) <> phase.(w) then begin
          stamp.(e) <- phase.(w);
          left.(w) <- left.(w) - 1;
          if left.(w) = 0 then begin
            phase.(w) <- phase.(w) + 1;
            left.(w) <- k
          end
        end)
      trace;
    Array.fold_left ( + ) 0 phase
  end

let dynamic_lb (inst : Instance.t) trace ?offsets () =
  let k = inst.Instance.k in
  let offsets =
    match offsets with
    | Some l -> l
    | None -> [ 0; (k + 2) / 3; 2 * (k + 2) / 3 ]
  in
  List.fold_left
    (fun acc off -> Stdlib.max acc (lb_for_offset inst trace off))
    0 offsets

let interval_opt (inst : Instance.t) trace ~shift ~epsilon =
  let module Intervals = Rbgp_ring.Intervals in
  let n = inst.Instance.n and k = inst.Instance.k in
  let dec = Intervals.make ~n ~k ~epsilon ~shift in
  (* requests restricted to each interval, in local coordinates — the exact
     decomposition Dynamic_alg uses, so OPT_R is the true comparator *)
  let subs = Array.make dec.Intervals.ell' [] in
  Array.iter
    (fun e ->
      let i, local = Intervals.locate dec e in
      subs.(i) <- local :: subs.(i))
    trace;
  let total = ref 0.0 in
  (* one DP buffer shared across all intervals (grown to the widest) *)
  let scratch = Rbgp_mts.Offline.scratch () in
  Array.iteri
    (fun i sub ->
      let metric = Rbgp_mts.Metric.Line (Intervals.width dec i) in
      let sub = Array.of_list (List.rev sub) in
      total :=
        !total +. Rbgp_mts.Offline.opt_cost_indicators_free ~scratch metric sub)
    subs;
  !total

let static_lb = Static_opt.crossing_lower_bound
