module Instance = Rbgp_ring.Instance

type t = {
  inst : Instance.t;
  epsilon : float;
  delta : float;  (* segment monochromaticity threshold 1/(1+eps) *)
  cut_w : bool array;  (* E_W *)
  marks : bool array;
  mutable opt_colors : int array;  (* OPT's current assignment *)
  mutable hit : int;
  mutable move : int;
}

type step_stats = {
  newly_marked : int;
  merges : int;
  moves : int;
  cut_outs : int;
  splits : int;
}

let n t = t.inst.Instance.n
let modn t x = ((x mod n t) + n t) mod n t

let create (inst : Instance.t) ~epsilon =
  if not (epsilon > 0.0 && epsilon <= 0.25) then
    invalid_arg "Well_behaved.create: epsilon must be in (0, 1/4]";
  if inst.Instance.n <= inst.Instance.k then
    invalid_arg "Well_behaved.create: requires n > k";
  let n = inst.Instance.n in
  let cut_w = Array.make n false in
  for e = 0 to n - 1 do
    if inst.Instance.initial.(e) <> inst.Instance.initial.((e + 1) mod n) then
      cut_w.(e) <- true
  done;
  {
    inst;
    epsilon;
    delta = 1.0 /. (1.0 +. epsilon);
    cut_w;
    marks = Array.make n false;
    opt_colors = Array.copy inst.Instance.initial;
    hit = 0;
    move = 0;
  }

(* --- navigation over the ring ------------------------------------- *)

(* nearest index e' with [pred e'], scanning clockwise from [e+1];
   includes wrapping; returns [e] itself after a full loop if pred e. *)
let next_such t pred e =
  let rec go i steps =
    if steps > n t then raise Not_found
    else if pred i then i
    else go (modn t (i + 1)) (steps + 1)
  in
  go (modn t (e + 1)) 1

let prev_such t pred e =
  let rec go i steps =
    if steps > n t then raise Not_found
    else if pred i then i
    else go (modn t (i - 1)) (steps + 1)
  in
  go (modn t (e - 1)) 1

let cw_dist t a b = modn t (b - a)

(* segment between two cuts: processes (a+1 .. b) where a, b are cut
   edges; if a = b the segment is the whole ring (single cut). *)
let segment_between t a b =
  if a = b then Rbgp_ring.Segment.whole ~n:(n t)
  else Rbgp_ring.Segment.of_endpoints ~n:(n t) (modn t (a + 1)) b

(* the W-segment immediately counterclockwise of cut e (ending at e) and
   the one clockwise (starting at e+1). *)
let seg_left t e =
  let a = prev_such t (fun i -> t.cut_w.(i)) e in
  segment_between t a e

let seg_right t e =
  let b = next_such t (fun i -> t.cut_w.(i)) e in
  segment_between t e b

let majority_color t seg =
  let counts = Array.make t.inst.Instance.ell 0 in
  Rbgp_ring.Segment.iter
    (fun p -> counts.(t.opt_colors.(p)) <- counts.(t.opt_colors.(p)) + 1)
    seg;
  let best = ref 0 in
  for c = 1 to t.inst.Instance.ell - 1 do
    if counts.(c) > counts.(!best) then best := c
  done;
  (!best, counts.(!best))

let is_delta_mono t seg =
  let _, cnt = majority_color t seg in
  float_of_int cnt > t.delta *. float_of_int (Rbgp_ring.Segment.length seg)

let opt_cuts t =
  let c = t.opt_colors in
  Array.init (n t) (fun e -> c.(e) <> c.((e + 1) mod n t))

(* --- the maintenance operations ----------------------------------- *)

exception Degenerate of string

let fix_cut t cut_o e_j stats =
  let left = seg_left t e_j and right = seg_right t e_j in
  if Rbgp_ring.Segment.length left >= n t then
    raise (Degenerate "single cut edge left in E_W");
  let c_l, _ = majority_color t left and c_r, _ = majority_color t right in
  if c_l = c_r then begin
    (* merge: move e_j onto an adjacent cut, i.e. delete it; the paper
       charges min(|L|, |R|) as movement *)
    t.move <-
      t.move
      + Stdlib.min
          (Rbgp_ring.Segment.length left)
          (Rbgp_ring.Segment.length right);
    t.cut_w.(e_j) <- false;
    stats := { !stats with merges = !stats.merges + 1 }
  end
  else begin
    let e_l = prev_such t (fun i -> cut_o.(i)) e_j in
    let e_r = next_such t (fun i -> cut_o.(i)) e_j in
    let c = t.opt_colors.(modn t (e_l + 1)) in
    let unmark seg = Rbgp_ring.Segment.iter (fun p -> t.marks.(p) <- false) seg in
    if c = c_l then begin
      (* move e_j clockwise to e_r, absorbing F∩R into the left segment *)
      t.move <- t.move + cw_dist t e_j e_r;
      t.cut_w.(e_j) <- false;
      t.cut_w.(e_r) <- true;
      unmark (segment_between t e_j e_r);
      stats := { !stats with moves = !stats.moves + 1 }
    end
    else if c = c_r then begin
      t.move <- t.move + cw_dist t e_l e_j;
      t.cut_w.(e_j) <- false;
      t.cut_w.(e_l) <- true;
      unmark (segment_between t e_l e_j);
      stats := { !stats with moves = !stats.moves + 1 }
    end
    else begin
      (* cut-out: F = (e_l, e_r] becomes its own segment *)
      let d_l = cw_dist t e_l e_j and d_r = cw_dist t e_j e_r in
      t.move <- t.move + Stdlib.min d_l d_r;
      t.cut_w.(e_j) <- false;
      t.cut_w.(e_l) <- true;
      t.cut_w.(e_r) <- true;
      unmark (segment_between t e_l e_r);
      stats := { !stats with cut_outs = !stats.cut_outs + 1 }
    end
  end

let segments t =
  let cuts = ref [] in
  for e = n t - 1 downto 0 do
    if t.cut_w.(e) then cuts := e :: !cuts
  done;
  match !cuts with
  | [] -> [ Rbgp_ring.Segment.whole ~n:(n t) ]
  | first :: _ as l ->
      let rec pair = function
        | [ last ] -> [ segment_between t last first ]
        | a :: (b :: _ as rest) -> segment_between t a b :: pair rest
        | [] -> []
      in
      pair l

let split_pass t cut_o stats =
  List.iter
    (fun seg ->
      if not (is_delta_mono t seg) then begin
        (* full split at OPT's cuts inside the segment; unmark everything *)
        Rbgp_ring.Segment.iter (fun p -> t.marks.(p) <- false) seg;
        List.iter
          (fun e -> if cut_o.(e) then t.cut_w.(e) <- true)
          (Rbgp_ring.Segment.edges_inside seg);
        stats := { !stats with splits = !stats.splits + 1 }
      end)
    (segments t)

let step t ~opt_assignment ~request =
  if Array.length opt_assignment <> n t then
    invalid_arg "Well_behaved.step: bad assignment length";
  let stats =
    ref { newly_marked = 0; merges = 0; moves = 0; cut_outs = 0; splits = 0 }
  in
  (* 1. mark OPT's migrations *)
  for p = 0 to n t - 1 do
    if opt_assignment.(p) <> t.opt_colors.(p) then begin
      if not t.marks.(p) then
        stats := { !stats with newly_marked = !stats.newly_marked + 1 };
      t.marks.(p) <- true
    end
  done;
  t.opt_colors <- Array.copy opt_assignment;
  let cut_o = opt_cuts t in
  (* 2. repair E_W \ E_O *)
  let rec repair () =
    let offending = ref None in
    for e = 0 to n t - 1 do
      if !offending = None && t.cut_w.(e) && not cut_o.(e) then
        offending := Some e
    done;
    match !offending with
    | Some e ->
        fix_cut t cut_o e stats;
        repair ()
    | None -> ()
  in
  repair ();
  (* 3. restore delta-monochromaticity by full splits *)
  split_pass t cut_o stats;
  (* 4. the request *)
  if t.cut_w.(request) then t.hit <- t.hit + 1;
  !stats

let hit_cost t = t.hit
let total_cost t = t.hit + t.move

let marked_count t =
  Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 t.marks

let cut_edges t =
  let acc = ref [] in
  for e = n t - 1 downto 0 do
    if t.cut_w.(e) then acc := e :: !acc
  done;
  !acc

let segment_sizes t = List.map Rbgp_ring.Segment.length (segments t)

let potential t =
  let k' = (1.0 +. t.epsilon) *. float_of_int t.inst.Instance.k in
  let log2 x = log x /. log 2.0 in
  let m = float_of_int (marked_count t) in
  let seg_term =
    List.fold_left
      (fun acc s ->
        let s = float_of_int s in
        acc +. (s *. log2 (k' /. s)))
      0.0 (segment_sizes t)
  in
  ((1.0 +. t.epsilon) /. t.epsilon *. log2 k' *. m) +. seg_term

(* (IH), (IM), (IS) and the segment-size bound against the given OPT
   assignment; {!replay} checks them after every step. *)
let check_invariants t ~opt_assignment =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let c = opt_assignment in
  (* (IH) *)
  for e = 0 to n t - 1 do
    if t.cut_w.(e) && c.(e) = c.((e + 1) mod n t) then
      err "(IH) violated: W-cut %d is not an OPT cut" e
  done;
  (* (IM), (IS), size bound *)
  let bound = (1.0 +. t.epsilon) *. float_of_int t.inst.Instance.k in
  List.iter
    (fun seg ->
      let maj, cnt = majority_color t seg in
      let len = Rbgp_ring.Segment.length seg in
      if not (float_of_int cnt > t.delta *. float_of_int len) then
        err "(IM) violated: segment %s not delta-monochromatic"
          (Format.asprintf "%a" Rbgp_ring.Segment.pp seg);
      if float_of_int len > bound +. 1e-9 then
        err "size violated: segment of %d processes exceeds (1+eps)k" len;
      Rbgp_ring.Segment.iter
        (fun p ->
          if t.opt_colors.(p) <> maj && not t.marks.(p) then
            err "(IS) violated: process %d has minority color but no mark" p)
        seg)
    (segments t);
  match !errors with [] -> Ok () | l -> Error (String.concat "; " l)

let replay (inst : Instance.t) ~epsilon ~trace ~schedule =
  if Array.length trace <> Array.length schedule then
    invalid_arg "Well_behaved.replay: trace/schedule length mismatch";
  let t = create inst ~epsilon in
  Array.iteri
    (fun i e ->
      let (_ : step_stats) = step t ~opt_assignment:schedule.(i) ~request:e in
      match check_invariants t ~opt_assignment:schedule.(i) with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "Well_behaved.replay step %d: %s" i msg))
    trace;
  t
