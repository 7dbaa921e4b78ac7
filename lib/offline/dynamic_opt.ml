module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost

type t = {
  inst : Instance.t;
  states : int array array;
      (* each state a partition of the n processes into at most ell blocks
         of at most k, as a restricted-growth string: blocks numbered in
         order of first appearance *)
  dist : Bytes.t;
      (* pairwise migration distances, m x m row-major, one byte per pair:
         byte [i * m + j] is d(i, j) *)
  cuts : Bytes.t array;  (* byte j of [cuts.(e)] is 1 iff state j cuts edge e *)
  initial_dist : int array;  (* distance from the initial assignment *)
}

(* --- block matching ---------------------------------------------------- *)

(* A request is charged when its processes sit on different servers and a
   migration per moved process, so no cost reads a server's name.  The
   cheapest labeled move from [a]'s layout to [b]'s keeps the largest
   overlap of their blocks: it migrates n minus the maximum, over
   permutations sigma of 0..ell-1, of sum_i |{p : a(p) = i, b(p) = sigma i}|.
   The search walks sigma in lexicographic order, cuts a branch that
   cannot beat the best found (each remaining row at its row maximum) and
   replaces the best only on a strict improvement, so it ends on the
   lexicographically smallest maximizer. *)
type matcher = {
  ell : int;
  ov : int array;  (* ov.(i * ell + j) = |{p : a(p) = i, b(p) = j}| *)
  rest : int array;  (* rest.(i): the row maxima of rows i.. summed *)
  used : bool array;
  cur : int array;
  sigma : int array;  (* the best permutation found *)
  mutable best : int;
}

let matcher ell =
  {
    ell;
    ov = Array.make (ell * ell) 0;
    rest = Array.make (ell + 1) 0;
    used = Array.make ell false;
    cur = Array.make ell 0;
    sigma = Array.make ell 0;
    best = -1;
  }

let rec search mt i acc =
  if acc + mt.rest.(i) > mt.best then
    if i = mt.ell then begin
      mt.best <- acc;
      Array.blit mt.cur 0 mt.sigma 0 mt.ell
    end
    else
      for j = 0 to mt.ell - 1 do
        if not mt.used.(j) then begin
          mt.used.(j) <- true;
          mt.cur.(i) <- j;
          search mt (i + 1) (acc + mt.ov.((i * mt.ell) + j));
          mt.used.(j) <- false
        end
      done

(* the largest block overlap of [a] with [b]; its sigma is left in
   [mt.sigma] *)
let match_blocks mt (a : int array) (b : int array) =
  let ell = mt.ell and ov = mt.ov in
  Array.fill ov 0 (ell * ell) 0;
  for p = 0 to Array.length a - 1 do
    let c = (a.(p) * ell) + b.(p) in
    ov.(c) <- ov.(c) + 1
  done;
  for i = ell - 1 downto 0 do
    let mx = ref 0 in
    for j = 0 to ell - 1 do
      mx := Int.max !mx ov.((i * ell) + j)
    done;
    mt.rest.(i) <- mt.rest.(i + 1) + !mx
  done;
  mt.best <- -1;
  search mt 0 0;
  mt.best

let too_many max_states =
  invalid_arg
    (Printf.sprintf "Dynamic_opt.enumerate_states: more than %d partitions"
       max_states)

let enumerate_states (inst : Instance.t) ?(max_states = 3000) () =
  let n = inst.Instance.n and ell = inst.Instance.ell and k = inst.Instance.k in
  let states = ref [] in
  let count = ref 0 in
  let a = Array.make n 0 in
  let loads = Array.make ell 0 in
  (* process p joins one of the [blocks] blocks opened so far, or opens
     the next one; the strings come out in lexicographic order *)
  let rec go p blocks =
    if !count > max_states then ()
    else if p = n then begin
      states := Array.copy a :: !states;
      incr count
    end
    else
      for s = 0 to Int.min blocks (ell - 1) do
        if loads.(s) < k then begin
          a.(p) <- s;
          loads.(s) <- loads.(s) + 1;
          go (p + 1) (if s = blocks then blocks + 1 else blocks);
          loads.(s) <- loads.(s) - 1
        end
      done
  in
  go 0 0;
  if !count > max_states then too_many max_states;
  let states = Array.of_list (List.rev !states) in
  let m = Array.length states in
  let mt = matcher ell in
  let distance a b = n - match_blocks mt a b in
  (* each pair once; a distance must fit its byte *)
  let dist = Bytes.make (m * m) '\000' in
  for i = 0 to m - 1 do
    let si = states.(i) in
    for j = i + 1 to m - 1 do
      let d = distance si states.(j) in
      if d > 255 then
        invalid_arg "Dynamic_opt.enumerate_states: distance over 255";
      Bytes.set dist ((i * m) + j) (Char.unsafe_chr d);
      Bytes.set dist ((j * m) + i) (Char.unsafe_chr d)
    done
  done;
  let cuts =
    Array.init n (fun e ->
        let e' = (e + 1) mod n in
        Bytes.init m (fun j ->
            let s = states.(j) in
            if s.(e) <> s.(e') then '\001' else '\000'))
  in
  let initial_dist =
    Array.map (fun s -> distance s inst.Instance.initial) states
  in
  { inst; states; dist; cuts; initial_dist }

let state_count t = Array.length t.states

(* --- shared-table cache ---------------------------------------------- *)

(* Enumeration is O(m^2 (n + ell!)) and the harness, tests and bench
   rebuild the same handful of tiny instances over and over — once per
   qcheck case, once per experiment, once per fan-out.  A process-wide
   memo keyed by the exact instance shape and initial assignment makes
   every rebuild after the first free.  A mutex makes the cache safe to
   consult from pool workers; the table itself is immutable once built
   and is shared read-only. *)

type cache_key = int * int * int * int array

let cache : (cache_key, t) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

let shared (inst : Instance.t) ?(max_states = 3000) () =
  let { Instance.n; ell; k; initial } = inst in
  let key = (n, ell, k, initial) in
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt cache key with
  | Some t ->
      Mutex.unlock cache_mutex;
      if state_count t > max_states then too_many max_states;
      t
  | None ->
      (* build outside the lock so slow enumerations don't serialize
         unrelated lookups; a racing duplicate build is harmless (last
         insert wins, both tables are equal) *)
      Mutex.unlock cache_mutex;
      let t = enumerate_states inst ~max_states () in
      Mutex.lock cache_mutex;
      if not (Hashtbl.mem cache key) then Hashtbl.add cache key t;
      let t = Hashtbl.find cache key in
      Mutex.unlock cache_mutex;
      t

(* Each solver returns the final cost row and [parent step j], the state
   that serves request [step - 1] when state [j] serves request [step]:
   the least (c(i) + d(i, j), c(i), i) over the step's input row c. *)

(* --- reference solver (exhaustive transitions) ----------------------- *)

(* The exhaustive Viterbi step: every state relaxes from every state,
   O(m^2) per request, keeping a parent per state and step.  It is the
   cross-check oracle for the pruned solver. *)
let run_reference t trace =
  let n = t.inst.Instance.n in
  let m = Array.length t.states in
  let steps = Array.length trace in
  let cost = Array.copy t.initial_dist in
  let next = Array.make m 0 in
  let parent = Array.make_matrix steps m (-1) in
  Array.iteri
    (fun step e ->
      if e < 0 || e >= n then invalid_arg "Dynamic_opt: edge out of range";
      let e' = (e + 1) mod n in
      for j = 0 to m - 1 do
        let s = t.states.(j) in
        let comm = if s.(e) <> s.(e') then 1 else 0 in
        let best = ref max_int and arg = ref (-1) in
        let row = j * m in
        for i = 0 to m - 1 do
          let v = cost.(i) + Char.code (Bytes.get t.dist (row + i)) in
          if v < !best || (v = !best && cost.(i) < cost.(!arg)) then begin
            best := v;
            arg := i
          end
        done;
        next.(j) <- !best + comm;
        parent.(step).(j) <- !arg
      done;
      Array.blit next 0 cost 0 m)
    trace;
  (cost, fun step j -> parent.(step).(j))

(* --- pruned solver ---------------------------------------------------- *)

(* Step t turns its input row c into L' = min_i c(i) + d(i, .) and feeds
   L' + chi_(e_t) to step t+1, where chi_e marks the states that cut edge
   e.  So c = L + chi, with L the previous step's output (initial_dist at
   t = 0).  Both are 1-Lipschitz in the migration distance d: a distance
   transform always is, and initial_dist is a distance.  Hence, for every j,
     L(j) <= min_i c(i) + d(i, j) <= c(j) = L(j) + chi(j).
   A state that does not cut the previous edge keeps c(j).  A state that
   cuts it drops to c(j) - 1 exactly when some non-cutting i is tight,
   c(i) + d(i, j) = c(j) - 1: a cutting i pays c(i) = L(i) + 1, too much.

   The tight test needs only the sources' dominance frontier.  d is
   Hamming distance quotiented by relabeling, still a metric, so by the
   triangle inequality, if c(i') + d(i', i) <= c(i) with i' <> i, then
   c(i') + d(i', j) <= c(i) + d(i, j) for every j and c(i') < c(i): a
   tight i has a strictly cheaper tight i' that is not dominated.  The frontier takes an O(m) filter against the cheapest
   source, a counting sort on c(i) - min in [0, n] (index order within a
   cost), then one sweep that tests each candidate against the kept ones
   through the candidate's own row.  The frontier is then walked in cost
   order against the targets still open: a target closes at its first
   tight source, or at the first source with c(i) >= c(j) - 1, which
   cannot be tight.

   No parents are kept.  The schedule's parent of j is the least
   (c(i) + d(i, j), c(i), i) over all states, as in the reference solver,
   and the walk back recomputes it from the step's input row in O(m).
   Rows hold L_t - min L_t in one byte each: L_t is 1-Lipschitz, so the
   spread is at most the largest distance, which enumeration keeps under
   256, and min L_t = min c_t, because L <= c and every value of L is
   some c(i) + d(i, j) >= min c.  c_(t+1) = L_t + chi_(e_t) is rebuilt
   from the cut row. *)
let run_pruned t trace =
  let n = t.inst.Instance.n in
  let m = Array.length t.states in
  let steps = Array.length trace in
  let dist = t.dist in
  let c = Array.copy t.initial_dist in
  let rows = Bytes.create (steps * m) in
  let cand = Array.make m 0 and sorted = Array.make m 0 in
  let tgt = Array.make m 0 in
  let fidx = Array.make m 0 and fcost = Array.make m 0 in
  let counts = Array.make (n + 2) 0 in
  (* at t = 0 no state has paid for a cut: c = initial_dist = L *)
  let no_cut = Bytes.make m '\000' in
  for step = 0 to steps - 1 do
    let e = trace.(step) in
    if e < 0 || e >= n then invalid_arg "Dynamic_opt: edge out of range";
    let chi = if step = 0 then no_cut else t.cuts.(trace.(step - 1)) in
    (* the row minimum, the cheapest source and the targets *)
    let lmin = ref max_int and piv = ref (-1) and nt = ref 0 in
    for j = 0 to m - 1 do
      let cj = c.(j) in
      if cj < !lmin then lmin := cj;
      if Bytes.get chi j <> '\000' then begin
        tgt.(!nt) <- j;
        incr nt
      end
      else if !piv < 0 || cj < c.(!piv) then piv := j
    done;
    if !nt > 0 && !piv >= 0 then begin
      let p = !piv in
      let base = c.(p) and prow = p * m in
      (* filter against the cheapest source, counting offsets from it *)
      Array.fill counts 0 (n + 2) 0;
      let ncand = ref 0 in
      for i = 0 to m - 1 do
        if Bytes.get chi i = '\000' then begin
          let ci = c.(i) in
          if i = p || ci < base + Char.code (Bytes.get dist (prow + i)) then begin
            cand.(!ncand) <- i;
            incr ncand;
            let o = ci - base + 1 in
            counts.(o) <- counts.(o) + 1
          end
        end
      done;
      for o = 1 to n + 1 do
        counts.(o) <- counts.(o) + counts.(o - 1)
      done;
      for q = 0 to !ncand - 1 do
        let i = cand.(q) in
        let o = c.(i) - base in
        sorted.(counts.(o)) <- i;
        counts.(o) <- counts.(o) + 1
      done;
      (* exact pairwise dominance, cheapest first *)
      let nf = ref 0 in
      for q = 0 to !ncand - 1 do
        let i = sorted.(q) in
        let ci = c.(i) and row = i * m in
        let dominated = ref false and k = ref 0 in
        while (not !dominated) && !k < !nf && fcost.(!k) < ci do
          if fcost.(!k) + Char.code (Bytes.get dist (row + fidx.(!k))) <= ci
          then dominated := true;
          incr k
        done;
        if not !dominated then begin
          fidx.(!nf) <- i;
          fcost.(!nf) <- ci;
          incr nf
        end
      done;
      (* each target drops by one iff a frontier source is tight; with the
         sources outside, a step reads |F| rows of the matrix, not one per
         target *)
      let k = ref 0 in
      while !nt > 0 && !k < !nf do
        let cf = fcost.(!k) and row = fidx.(!k) * m in
        let w = ref 0 in
        for q = 0 to !nt - 1 do
          let j = tgt.(q) in
          let tight = c.(j) - 1 in
          if cf + Char.code (Bytes.get dist (row + j)) = tight then
            c.(j) <- tight
          else if cf < tight then begin
            tgt.(!w) <- j;
            incr w
          end
        done;
        nt := !w;
        incr k
      done
    end;
    (* c is L_t now: keep it for the walk back, then charge edge e *)
    let cut = t.cuts.(e) and row = step * m and lmin = !lmin in
    for j = 0 to m - 1 do
      let l = c.(j) in
      Bytes.set rows (row + j) (Char.unsafe_chr (l - lmin));
      c.(j) <- l + Char.code (Bytes.get cut j)
    done
  done;
  (* step's input row is c = L_(step-1) + chi_(e_(step-1)), up to a shift *)
  let parent step j =
    let row = (step - 1) * m and drow = j * m in
    let cut = t.cuts.(trace.(step - 1)) in
    let best = ref max_int and best_c = ref max_int and arg = ref 0 in
    for i = 0 to m - 1 do
      let ci =
        Char.code (Bytes.get rows (row + i)) + Char.code (Bytes.get cut i)
      in
      let v = ci + Char.code (Bytes.get dist (drow + i)) in
      if v < !best || (v = !best && ci < !best_c) then begin
        best := v;
        best_c := ci;
        arg := i
      end
    done;
    !arg
  in
  (c, parent)

let solve_schedule ?(reference = false) t trace =
  let steps = Array.length trace in
  if steps = 0 then ([||], Cost.zero ())
  else begin
    let cost, parent =
      if reference then run_reference t trace else run_pruned t trace
    in
    let m = Array.length t.states in
    let idx = Array.make steps 0 in
    for j = 1 to m - 1 do
      if cost.(j) < cost.(idx.(steps - 1)) then idx.(steps - 1) <- j
    done;
    for step = steps - 2 downto 0 do
      idx.(step) <- parent (step + 1) idx.(step + 1)
    done;
    (* each partition takes the labeling nearest to the labeled state
       before it (the initial assignment at step 0), the lexicographically
       smallest on a tie: the move costs exactly d *)
    let mt = matcher t.inst.Instance.ell in
    let prev = ref t.inst.Instance.initial in
    let schedule =
      Array.map
        (fun i ->
          let part = t.states.(i) in
          ignore (match_blocks mt part !prev : int);
          prev := Array.map (fun b -> mt.sigma.(b)) part;
          !prev)
        idx
    in
    let c = Rbgp_ring.Simulator.replay_cost t.inst trace ~assignments:schedule in
    if Cost.total c <> cost.(idx.(steps - 1)) then
      failwith "Dynamic_opt.solve_schedule: replay disagrees with DP";
    (schedule, c)
  end

let solve ?reference t trace = snd (solve_schedule ?reference t trace)
