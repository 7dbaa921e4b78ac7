(* w'(s) = min_{s'} (u(s') + d(s',s)) with u = w + T: the distance transform
   of u under the metric.  O(s) on the line by forward/backward sweeps. *)
let distance_transform_inplace metric w =
  let s = Array.length w in
  match (metric : Metric.t) with
  | Metric.Line _ ->
      for i = 1 to s - 1 do
        if w.(i - 1) +. 1.0 < w.(i) then w.(i) <- w.(i - 1) +. 1.0
      done;
      for i = s - 2 downto 0 do
        if w.(i + 1) +. 1.0 < w.(i) then w.(i) <- w.(i + 1) +. 1.0
      done
  | Metric.Uniform _ ->
      let m = Array.fold_left Float.min w.(0) w in
      for i = 0 to s - 1 do
        if m +. 1.0 < w.(i) then w.(i) <- m +. 1.0
      done

let solver_introspect metric ~start =
  let s = Metric.size metric in
  (* hoist the per-call distance function: Metric.distance re-validates its
     arguments on every call, which dominates the argmin loop *)
  let dist =
    match metric with
    | Metric.Line _ -> fun a b -> abs (a - b)
    | Metric.Uniform _ -> fun a b -> if a = b then 0 else 1
  in
  (* w_0(x) = d(start, x): the cost of moving to x before any task.  The
     unit task on e adds 1 to w(e) alone (the other entries would gain an
     exact +0.0), and the distance transform runs in place. *)
  let w = Array.init s (fun i -> float_of_int (Metric.distance metric start i)) in
  let next e current =
    w.(e) <- w.(e) +. 1.0;
    distance_transform_inplace metric w;
    (* argmin of w(x) + d(current, x); break ties toward the state with
       the SMALLER work function value (then nearer, then smaller index).
       Tie-breaking toward staying would let an adversary pin the
       algorithm on a hammered state forever: after saturation,
       w(current) = w(neighbour) + 1, the scores tie, and staying keeps
       paying 1 per request — preferring low w escapes instead.  The best
       score is carried in an accumulator rather than recomputed from
       [!best] on every iteration. *)
    let best = ref current in
    let best_score = ref (w.(current) +. float_of_int (dist current current)) in
    for x = 0 to s - 1 do
      let sx = w.(x) +. float_of_int (dist current x) in
      let sb = !best_score in
      let better =
        sx < sb -. 1e-12
        || Float.abs (sx -. sb) <= 1e-12
           && (w.(x) < w.(!best) -. 1e-12
              || Float.abs (w.(x) -. w.(!best)) <= 1e-12
                 && dist current x < dist current !best)
      in
      if better then begin
        best := x;
        best_score := sx
      end
    done;
    !best
  in
  (* w holds whole numbers too, but it is a cost vector, not a count:
     it travels as exact float bits *)
  let save buf =
    Rbgp_util.Binc.add_varint buf s;
    Array.iter (Rbgp_util.Binc.add_float buf) w
  in
  let load r =
    let len = Rbgp_util.Binc.read_varint r in
    if len <> s then
      invalid_arg
        (Printf.sprintf "Work_function: snapshot holds %d entries, need %d"
           len s);
    for i = 0 to s - 1 do
      w.(i) <- Rbgp_util.Binc.read_float r
    done
  in
  let t = Mts.make ~name:"wfa" ~metric ~start ~next ~save ~load in
  (t, fun () -> Array.copy w)

let solver : Mts.factory =
 fun metric ~start ~rng:_ -> fst (solver_introspect metric ~start)
