module Instance = Rbgp_ring.Instance
module Cost = Rbgp_ring.Cost

type t = {
  inst : Instance.t;
  states : int array array;  (* each state = assignment array of length n *)
  dist : Bytes.t;
      (* pairwise Hamming distances, m x m row-major, one byte per pair:
         byte [i * m + j] is d(i, j) *)
  cuts : Bytes.t array;  (* byte j of [cuts.(e)] is 1 iff state j cuts edge e *)
  initial_dist : int array;  (* distance from the initial assignment *)
}

(* --- symmetry canonicalization -------------------------------------- *)

(* Canonical form under the two structural symmetries of the cost model:
   ring rotation (requests and migrations only see relative positions) and
   server relabeling (Hamming distance and edge crossings are invariant
   under applying one permutation of server names to both arguments).  For
   every rotation offset we relabel servers in order of first appearance
   and keep the lexicographically smallest result.  Two states in the same
   orbit have identical crossing structure and identical pairwise-distance
   rows up to the induced permutation of the state space; the DP below
   cannot quotient by the orbit (the fixed initial assignment breaks the
   symmetry through migration costs), but the canonical key powers the
   shared-table cache hash. *)
(* Lexicographic comparison of equal-length int arrays — exactly what the
   polymorphic compare this replaces computed (lengths match by
   construction: all candidates are length-n assignment vectors). *)
let compare_int_array a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let c = ref 0 in
    let i = ref 0 in
    while !c = 0 && !i < la do
      c := Int.compare a.(!i) b.(!i);
      incr i
    done;
    !c
  end

let canonical a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let colors = Array.fold_left Int.max 0 a + 1 in
    let best = ref None in
    let relabel = Array.make colors (-1) in
    let cand = Array.make n 0 in
    for r = 0 to n - 1 do
      Array.fill relabel 0 colors (-1);
      let next = ref 0 in
      for p = 0 to n - 1 do
        let v = a.((p + r) mod n) in
        if relabel.(v) < 0 then begin
          relabel.(v) <- !next;
          incr next
        end;
        cand.(p) <- relabel.(v)
      done;
      match !best with
      | Some b when compare_int_array b cand <= 0 -> ()
      | _ -> best := Some (Array.copy cand)
    done;
    match !best with Some b -> b | None -> assert false
  end

let enumerate_states (inst : Instance.t) ?(max_states = 3000) () =
  let n = inst.Instance.n and ell = inst.Instance.ell and k = inst.Instance.k in
  let states = ref [] in
  let count = ref 0 in
  let a = Array.make n 0 in
  let loads = Array.make ell 0 in
  let rec go p =
    if !count > max_states then ()
    else if p = n then begin
      states := Array.copy a :: !states;
      incr count
    end
    else
      for s = 0 to ell - 1 do
        if loads.(s) < k then begin
          a.(p) <- s;
          loads.(s) <- loads.(s) + 1;
          go (p + 1);
          loads.(s) <- loads.(s) - 1
        end
      done
  in
  go 0;
  if !count > max_states then
    invalid_arg
      (Printf.sprintf
         "Dynamic_opt.enumerate_states: more than %d balanced configurations"
         max_states);
  let states = Array.of_list (List.rev !states) in
  let m = Array.length states in
  let hamming (a : int array) (b : int array) =
    let d = ref 0 in
    for p = 0 to n - 1 do
      if a.(p) <> b.(p) then incr d
    done;
    !d
  in
  (* each pair once; a distance must fit its byte *)
  let dist = Bytes.make (m * m) '\000' in
  for i = 0 to m - 1 do
    let si = states.(i) in
    for j = i + 1 to m - 1 do
      let d = hamming si states.(j) in
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
  let initial_dist = Array.map (hamming inst.Instance.initial) states in
  { inst; states; dist; cuts; initial_dist }

let state_count t = Array.length t.states

(* --- shared-table cache ---------------------------------------------- *)

(* Enumeration is O(m^2 n) (the distance matrix dominates) and the harness,
   tests and bench rebuild the same handful of tiny instances over and over
   — once per qcheck case, once per experiment, once per fan-out.  A
   process-wide memo keyed by the exact instance shape makes every rebuild
   after the first free.  The canonical form of the initial assignment is
   folded into the hash key (cheap, high-entropy); equality remains exact.
   A mutex makes the cache safe to consult from pool workers; the table
   itself is immutable once built and is shared read-only. *)

type cache_key = int * int * int * int array * int array

let cache : (cache_key, t) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

let shared (inst : Instance.t) ?(max_states = 3000) () =
  let key =
    ( inst.Instance.n,
      inst.Instance.ell,
      inst.Instance.k,
      inst.Instance.initial,
      canonical inst.Instance.initial )
  in
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt cache key with
  | Some t ->
      Mutex.unlock cache_mutex;
      if state_count t > max_states then
        invalid_arg
          (Printf.sprintf
             "Dynamic_opt.enumerate_states: more than %d balanced \
              configurations"
             max_states);
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
   t = 0).  Both are 1-Lipschitz in Hamming distance: a distance transform
   always is, and initial_dist is a distance.  Hence, for every j,
     L(j) <= min_i c(i) + d(i, j) <= c(j) = L(j) + chi(j).
   A state that does not cut the previous edge keeps c(j).  A state that
   cuts it drops to c(j) - 1 exactly when some non-cutting i is tight,
   c(i) + d(i, j) = c(j) - 1: a cutting i pays c(i) = L(i) + 1, too much.

   The tight test needs only the sources' dominance frontier.  Hamming
   distance obeys the triangle inequality, so if c(i') + d(i', i) <= c(i)
   with i' <> i, then c(i') + d(i', j) <= c(i) + d(i, j) for every j and
   c(i') < c(i): a tight i has a strictly cheaper tight i' that is not
   dominated.  The frontier takes an O(m) filter against the cheapest
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
    let schedule = Array.map (fun i -> Array.copy t.states.(i)) idx in
    let c = Rbgp_ring.Simulator.replay_cost t.inst trace ~assignments:schedule in
    if Cost.total c <> cost.(idx.(steps - 1)) then
      failwith "Dynamic_opt.solve_schedule: replay disagrees with DP";
    (schedule, c)
  end

let solve ?reference t trace = snd (solve_schedule ?reference t trace)
