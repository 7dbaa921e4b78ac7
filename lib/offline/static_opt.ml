module Instance = Rbgp_ring.Instance

type solution = {
  assignment : int array;
  migration : int;
  crossing : int;
  total : int;
}

(* Per-edge request counts of [trace.(pos .. pos+len-1)], into [x]. *)
let count_edges (inst : Instance.t) x trace ~pos ~len =
  Array.fill x 0 inst.Instance.n 0;
  for t = pos to pos + len - 1 do
    let e = trace.(t) in
    if e < 0 || e >= inst.Instance.n then
      invalid_arg "Static_opt: trace edge out of range";
    x.(e) <- x.(e) + 1
  done

let edge_counts (inst : Instance.t) trace =
  let x = Array.make inst.Instance.n 0 in
  count_edges inst x trace ~pos:0 ~len:(Array.length trace);
  x

let check_balanced (inst : Instance.t) a =
  if Array.length a <> inst.Instance.n then
    invalid_arg "Static_opt.cost_of_assignment: bad length";
  let loads = Array.make inst.Instance.ell 0 in
  Array.iter
    (fun s ->
      if s < 0 || s >= inst.Instance.ell then
        invalid_arg "Static_opt.cost_of_assignment: server out of range";
      loads.(s) <- loads.(s) + 1)
    a;
  Array.iter
    (fun load ->
      if load > inst.Instance.k then
        invalid_arg "Static_opt.cost_of_assignment: unbalanced assignment")
    loads

(* Price a balanced [a] against per-edge request counts [x]; the solution
   keeps [a] itself. *)
let price (inst : Instance.t) x a =
  let n = inst.Instance.n in
  let migration = ref 0 and crossing = ref 0 in
  for p = 0 to n - 1 do
    if a.(p) <> inst.Instance.initial.(p) then incr migration;
    if a.(p) <> a.((p + 1) mod n) then crossing := !crossing + x.(p)
  done;
  {
    assignment = a;
    migration = !migration;
    crossing = !crossing;
    total = !migration + !crossing;
  }

let cost_of_assignment (inst : Instance.t) trace a =
  check_balanced inst a;
  price inst (edge_counts inst trace) (Array.copy a)

(* ------------------------------------------------------------------ *)
(* Exhaustive optimum                                                  *)
(* ------------------------------------------------------------------ *)

let brute_force (inst : Instance.t) trace =
  let n = inst.Instance.n and ell = inst.Instance.ell and k = inst.Instance.k in
  let states = float_of_int ell ** float_of_int n in
  if states > 1e7 then
    invalid_arg "Static_opt.brute_force: instance too large";
  let x = edge_counts inst trace in
  let a = Array.make n 0 in
  let loads = Array.make ell 0 in
  let best = ref max_int and best_a = ref [||] in
  (* partial cost = migrations so far + crossings of fully assigned edges
     (edge p-1 once position p is assigned; edge n-1 at the very end) *)
  let rec go p acc =
    if acc >= !best then ()
    else if p = n then begin
      let closing = if a.(n - 1) <> a.(0) then x.(n - 1) else 0 in
      if acc + closing < !best then begin
        best := acc + closing;
        best_a := Array.copy a
      end
    end
    else
      for s = 0 to ell - 1 do
        if loads.(s) < k then begin
          a.(p) <- s;
          loads.(s) <- loads.(s) + 1;
          let mig = if s <> inst.Instance.initial.(p) then 1 else 0 in
          let cross = if p > 0 && a.(p - 1) <> s then x.(p - 1) else 0 in
          go (p + 1) (acc + mig + cross);
          loads.(s) <- loads.(s) - 1
        end
      done
  in
  go 0 0;
  if !best_a = [||] then failwith "Static_opt.brute_force: no feasible assignment";
  cost_of_assignment inst trace !best_a

(* ------------------------------------------------------------------ *)
(* Cycle DP over cut placements                                        *)
(* ------------------------------------------------------------------ *)

(* The crossing DPs below used to run on float arrays with [infinity]
   sentinels and round back with [int_of_float]; crossing counts are
   integers, so they now run on int arrays end-to-end ([unreachable] as the
   sentinel, safely below any overflow when added to a per-edge count) and
   reuse one preallocated deque across all anchors and layers instead of
   allocating two arrays per (anchor x layer). *)
let unreachable = max_int / 4

(* Sliding-window minimum over the last [k] values of a DP layer, fed one
   value at a time.  Classic monotonic deque. *)
module Window_min = struct
  type t = {
    k : int;
    idx : int array;
    value : int array;
    mutable head : int;
    mutable tail : int;  (* deque is idx/value[head..tail-1] *)
  }

  let create ~k ~capacity =
    {
      k;
      idx = Array.make capacity 0;
      value = Array.make capacity 0;
      head = 0;
      tail = 0;
    }

  let reset t =
    t.head <- 0;
    t.tail <- 0

  let push t i v =
    while t.tail > t.head && t.value.(t.tail - 1) >= v do
      t.tail <- t.tail - 1
    done;
    t.idx.(t.tail) <- i;
    t.value.(t.tail) <- v;
    t.tail <- t.tail + 1

  (* minimum over values pushed with index in [i - k, i - 1] *)
  let min_before t i =
    while t.tail > t.head && t.idx.(t.head) < i - t.k do
      t.head <- t.head + 1
    done;
    if t.tail = t.head then unreachable else t.value.(t.head)
end

let check_splittable (inst : Instance.t) =
  if inst.Instance.n <= inst.Instance.k then
    invalid_arg "Static_opt: requires n > k (ring must be split)"

let crossing_lower_bound (inst : Instance.t) trace =
  check_splittable inst;
  let n = inst.Instance.n and k = inst.Instance.k in
  let x = edge_counts inst trace in
  let best = ref unreachable in
  (* one DP layer and one deque, reset per anchor instead of reallocated *)
  let f = Array.make n unreachable in
  let w = Window_min.create ~k ~capacity:n in
  (* anchor = the first cut among edges 0..k-1; every valid cut set has one *)
  for c0 = 0 to Int.min (k - 1) (n - 1) do
    let arr i = x.((c0 + i) mod n) in
    Window_min.reset w;
    f.(0) <- arr 0;
    Window_min.push w 0 f.(0);
    for i = 1 to n - 1 do
      let m = Window_min.min_before w i in
      f.(i) <- (if m < unreachable then m + arr i else unreachable);
      if f.(i) < unreachable then Window_min.push w i f.(i)
    done;
    (* wrap gap from last cut back to the anchor must be <= k *)
    for i = Int.max 1 (n - k) to n - 1 do
      if f.(i) < !best then best := f.(i)
    done;
    (* a single cut is impossible for n > k, so i >= 1 above is safe *)
  done;
  !best

(* The DP below runs from each anchor c0 (the first cut among edges
   0..k-1, as above) over relabeled positions i, edge (c0 + i) mod n:
   g.(s).(i) is the least crossing of s+1 cuts, at 0 and the s-th at i, with
   every gap at most k.  Only a band of positions can take the s-th cut of
   a partition into at most [ell] segments of at most [k]: at least s (gaps
   are at least 1), at most s*k (gaps at most k), and at least
   n - (ell - s)*k (the remaining at most ell - s segments must close the
   cycle).  An entry below s or above s*k is unreachable; one below
   n - (ell - s)*k cannot close the cycle and feeds only entries below the
   next layer's band.  So the band holds every value, parent and tie-break
   the full n-wide table would, and with slack sigma = ell*k - n it is at
   most sigma + 1 wide: O(k * ell * (sigma + 1)) per solve. *)
type scratch = {
  inst : Instance.t;
  x : int array;  (* per-edge request counts of the window being solved *)
  lo : int array;  (* the band of layer s is [lo.(s), hi.(s)] *)
  hi : int array;
  g : int array array;  (* g.(s).(i - lo.(s)) *)
  parent : int array array;  (* the s-1-th cut of g.(s)'s argmin *)
  w : Window_min.t;
}

let scratch (inst : Instance.t) =
  let n = inst.Instance.n and k = inst.Instance.k and ell = inst.Instance.ell in
  let lo = Array.init ell (fun s -> Int.max s (n - ((ell - s) * k))) in
  let hi = Array.init ell (fun s -> Int.min (n - 1) (s * k)) in
  let width = Int.min n ((ell * k) - n + 1) in
  {
    inst;
    x = Array.make n 0;
    lo;
    hi;
    g = Array.make_matrix ell width unreachable;
    parent = Array.make_matrix ell width (-1);
    w = Window_min.create ~k ~capacity:width;
  }

(* The optimal cut set (original edge indices) for the counts in [sc.x]. *)
let best_cut_set sc =
  let n = sc.inst.Instance.n and k = sc.inst.Instance.k in
  let ell = sc.inst.Instance.ell in
  let x = sc.x and lo = sc.lo and hi = sc.hi and g = sc.g and w = sc.w in
  let best = ref unreachable and best_cuts = ref None in
  for c0 = 0 to Int.min (k - 1) (n - 1) do
    let arr i = x.((c0 + i) mod n) in
    (* layer 0's band is the anchor alone *)
    g.(0).(0) <- arr 0;
    for s = 1 to ell - 1 do
      let prev = g.(s - 1) and cur = g.(s) and parent = sc.parent.(s) in
      let plo = lo.(s - 1) and phi = hi.(s - 1) in
      Window_min.reset w;
      (* the next previous-layer position to push *)
      let next = ref plo in
      for i = lo.(s) to hi.(s) do
        while !next < i && !next <= phi do
          let v = prev.(!next - plo) in
          if v < unreachable then Window_min.push w !next v;
          incr next
        done;
        let m = Window_min.min_before w i in
        if m < unreachable then begin
          cur.(i - lo.(s)) <- m + arr i;
          (* the deque's head is the argmin (the latest on a tie) *)
          parent.(i - lo.(s)) <- w.Window_min.idx.(w.Window_min.head)
        end
        else cur.(i - lo.(s)) <- unreachable
      done
    done;
    (* close the cycle: last cut i with n - i <= k; s+1 cuts = s+1 segments *)
    for s = 0 to ell - 1 do
      for i = Int.max lo.(s) (Int.max 1 (n - k)) to hi.(s) do
        if g.(s).(i - lo.(s)) < !best then begin
          best := g.(s).(i - lo.(s));
          (* reconstruct relabeled cut positions *)
          let cuts = ref [] in
          let cur = ref i and level = ref s in
          while !cur >= 0 && !level >= 0 do
            cuts := ((c0 + !cur) mod n) :: !cuts;
            let p =
              if !level = 0 then -1
              else sc.parent.(!level).(!cur - lo.(!level))
            in
            cur := p;
            decr level
          done;
          best_cuts := Some !cuts
        end
      done
    done
  done;
  match !best_cuts with
  | Some cuts -> List.sort_uniq Int.compare cuts
  | None -> failwith "Static_opt: no feasible segmented partition"

(* The segments of the optimal cut set, named by servers so that migration
   is least (Hungarian), as an assignment. *)
let segmented_dp sc =
  let inst = sc.inst in
  let n = inst.Instance.n and ell = inst.Instance.ell in
  let cuts = Array.of_list (best_cut_set sc) in
  let m = Array.length cuts in
  (* segment i = processes (cuts.(i) + 1 .. cuts.(i+1)) cyclically *)
  let overlap = Array.make_matrix ell ell 0 in
  let seg_sizes = Array.make ell 0 in
  for i = 0 to m - 1 do
    let a = (cuts.(i) + 1) mod n in
    let b = cuts.((i + 1) mod m) in
    let seg = Rbgp_ring.Segment.of_endpoints ~n a b in
    seg_sizes.(i) <- Rbgp_ring.Segment.length seg;
    Rbgp_ring.Segment.iter
      (fun p ->
        let s = inst.Instance.initial.(p) in
        overlap.(i).(s) <- overlap.(i).(s) + 1)
      seg
  done;
  let cost =
    Array.init ell (fun i ->
        Array.init ell (fun s ->
            if i < m then float_of_int (seg_sizes.(i) - overlap.(i).(s))
            else 0.0))
  in
  let naming, _ = Hungarian.solve cost in
  let a = Array.make n (-1) in
  for i = 0 to m - 1 do
    let start = (cuts.(i) + 1) mod n in
    let seg = Rbgp_ring.Segment.of_endpoints ~n start cuts.((i + 1) mod m) in
    Rbgp_ring.Segment.iter (fun p -> a.(p) <- naming.(i)) seg
  done;
  a

let segmented_window sc trace ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length trace then
    invalid_arg "Static_opt.segmented_window: window out of range";
  let inst = sc.inst in
  check_splittable inst;
  count_edges inst sc.x trace ~pos ~len;
  let a = segmented_dp sc in
  check_balanced inst a;
  let dp = price inst sc.x a in
  (* The DP minimizes crossing cost and only then migration; the initial
     assignment (zero migration) can beat it when many cut sets tie at the
     same crossing cost, so consider it as a candidate too. *)
  let initial = inst.Instance.initial in
  check_balanced inst initial;
  let stay = price inst sc.x (Array.copy initial) in
  if stay.total <= dp.total then stay else dp

let segmented (inst : Instance.t) trace =
  segmented_window (scratch inst) trace ~pos:0 ~len:(Array.length trace)
