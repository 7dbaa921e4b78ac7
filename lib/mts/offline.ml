(* In-place distance transforms over the first [len] entries of [a]:
   a.(i) <- min over j of (a.(j) + d(i, j)).

   On the line the transform is the classic two-sweep lower envelope; the
   per-row argmin is monotone in [i], which is exactly what lets one
   forward and one backward relaxation replace the O(len^2) minimum.  On
   the uniform metric the transform clamps everything to (global min) + 1.
   Both run in O(len) with zero allocation — earlier versions staged the
   result through a scratch buffer and blitted it back, which doubled the
   memory traffic of the hottest comparator loop (the per-request cost of
   the segmented static OPT and the per-interval MTS OPT). *)

let transform_line_inplace (a : float array) len =
  for i = 1 to len - 1 do
    if a.(i - 1) +. 1.0 < a.(i) then a.(i) <- a.(i - 1) +. 1.0
  done;
  for i = len - 2 downto 0 do
    if a.(i + 1) +. 1.0 < a.(i) then a.(i) <- a.(i + 1) +. 1.0
  done

let transform_uniform_inplace (a : float array) len =
  let mn = ref a.(0) in
  for i = 1 to len - 1 do
    if a.(i) < !mn then mn := a.(i)
  done;
  let cap = !mn +. 1.0 in
  for i = 0 to len - 1 do
    if cap < a.(i) then a.(i) <- cap
  done

let transform_inplace metric (a : float array) len =
  match (metric : Metric.t) with
  | Metric.Line _ -> transform_line_inplace a len
  | Metric.Uniform _ -> transform_uniform_inplace a len

let min_prefix (a : float array) len =
  let mn = ref a.(0) in
  for i = 1 to len - 1 do
    if a.(i) < !mn then mn := a.(i)
  done;
  !mn

(* --- indicator tasks ------------------------------------------------- *)

(* Reusable DP buffer, grown on demand, in the spirit of
   [Dist.of_grad_into]: callers that evaluate many per-interval optima
   (the windowed lower bound, the interval comparator of Lemma 3.3) pass
   one scratch and the DP stops allocating per call.  Only the first
   [Metric.size] entries are touched. *)
type scratch = { mutable buf : float array }

let scratch () = { buf = [||] }

let scratch_buf sc len =
  if Array.length sc.buf < len then sc.buf <- Array.make len 0.0;
  sc.buf

let opt_cost_indicators_free ?scratch metric es =
  let s = Metric.size metric in
  Array.iter (fun e -> Metric.check_state metric e) es;
  if Array.length es = 0 then 0.0
  else begin
    let opt =
      match scratch with
      | Some sc ->
          let buf = scratch_buf sc s in
          Array.fill buf 0 s 0.0;
          buf
      | None -> Array.make s 0.0
    in
    Array.iter
      (fun e ->
        transform_inplace metric opt s;
        opt.(e) <- opt.(e) +. 1.0)
      es;
    min_prefix opt s
  end
