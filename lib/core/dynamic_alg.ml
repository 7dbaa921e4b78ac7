module Instance = Rbgp_ring.Instance
module Assignment = Rbgp_ring.Assignment
module Segment = Rbgp_ring.Segment
module Intervals = Rbgp_ring.Intervals
module Mts = Rbgp_mts.Mts
module Metric = Rbgp_mts.Metric
module Rng = Rbgp_util.Rng
module Binc = Rbgp_util.Binc

(* Packed edge routing: one int per edge holding both the owning interval
   and the interval-local index, so the per-request lookup touches one
   cache line instead of two.  31 bits for the local index leaves 31 for
   the interval id — both bounded by n, far below either limit. *)
let route_bits = 31
let route_mask = (1 lsl route_bits) - 1

type t = {
  inst : Instance.t;
  dec : Intervals.t;
  solvers : Mts.t array;
  cuts : int array;  (* global cut edge per interval *)
  cut_locals : int array;  (* the same cuts in interval-local coordinates *)
  bases : int array;  (* first global edge of each interval *)
  route_of_edge : int array;  (* global edge -> (interval lsl route_bits) lor local *)
  assignment : Assignment.t;
  scratch_servers : int array;
}

(* The first initial cut edge inside interval i: the MTS start state.
   Balanced initial loads guarantee one within any k+1 consecutive
   vertices, and intervals have width >= k'. *)
let initial_cut_local (inst : Instance.t) dec i =
  let n = inst.Instance.n in
  let w = Intervals.width dec i in
  let rec find local =
    if local >= w then
      (* n <= k (single-server-capable ring): no cut edge required; any
         position works since the whole ring maps to one slice. *)
      0
    else
      let e = Intervals.to_global dec i local in
      if inst.Instance.initial.(e) <> inst.Instance.initial.((e + 1) mod n)
      then local
      else find (local + 1)
  in
  find 0

let apply_cuts t =
  let slices = Intervals.slices_of_cuts t.dec t.cuts in
  let n = t.inst.Instance.n in
  let target = t.scratch_servers in
  Array.iter
    (fun (server, seg) -> Segment.iter (fun p -> target.(p) <- server) seg)
    slices;
  for p = 0 to n - 1 do
    Assignment.set t.assignment p target.(p)
  done

let create ?shift ?(mts = Rbgp_mts.Smin_mw.solver) ~epsilon (inst : Instance.t)
    rng =
  let n = inst.Instance.n and k = inst.Instance.k in
  let shift = match shift with Some r -> r | None -> Rng.int rng n in
  let dec = Intervals.make ~n ~k ~epsilon ~shift in
  if dec.Intervals.ell' > inst.Instance.ell then
    invalid_arg
      (Printf.sprintf
         "Dynamic_alg.create: %d intervals exceed %d servers (epsilon too \
          small for this instance?)"
         dec.Intervals.ell' inst.Instance.ell);
  let ell' = dec.Intervals.ell' in
  (* per-interval seed split happens here, sequentially in interval order:
     solver i owns an independent rng stream whose identity is fixed before
     any request arrives *)
  let solvers =
    Array.init ell' (fun i ->
        let metric = Metric.Line (Intervals.width dec i) in
        let start = initial_cut_local inst dec i in
        mts metric ~start ~rng:(Rng.split rng))
  in
  let cut_locals = Array.init ell' (fun i -> Mts.state solvers.(i)) in
  let bases = Array.init ell' (Intervals.base dec) in
  let cuts = Array.init ell' (fun i -> (bases.(i) + cut_locals.(i)) mod n) in
  (* O(1) request routing: interval widths sum to n, so one pass fills the
     whole edge->route map (replaces the O(ell') Intervals.locate scan on
     the hot path) *)
  let route_of_edge = Array.make n 0 in
  for i = 0 to ell' - 1 do
    for local = 0 to Intervals.width dec i - 1 do
      let e = (bases.(i) + local) mod n in
      route_of_edge.(e) <- (i lsl route_bits) lor local
    done
  done;
  let t =
    {
      inst;
      dec;
      solvers;
      cuts;
      cut_locals;
      bases;
      route_of_edge;
      assignment = Assignment.create inst;
      scratch_servers = Array.make n 0;
    }
  in
  apply_cuts t;
  t

(* Move interval i's cut to [new_local], updating the assignment
   incrementally: server i owns the vertex slice (cuts.(i), cuts.(i+1)]
   (see Intervals.slices_of_cuts), so advancing cut i hands the vertices
   between old and new cut to the predecessor slice, and retreating it
   reclaims them.  The moved range lies strictly inside interval i and
   can therefore never cross another interval's cut.  The journal records
   exactly the same set of process moves as a full apply_cuts rewrite. *)
let move_cut t i new_local =
  let old_local = t.cut_locals.(i) in
  if new_local <> old_local then begin
    let ell' = t.dec.Intervals.ell' in
    let n = t.inst.Instance.n in
    let b = t.bases.(i) in
    t.cut_locals.(i) <- new_local;
    t.cuts.(i) <- (b + new_local) mod n;
    if ell' > 1 then
      if new_local > old_local then begin
        let dst = (i + ell' - 1) mod ell' in
        for x = old_local + 1 to new_local do
          Assignment.set t.assignment ((b + x) mod n) dst
        done
      end
      else
        for x = new_local + 1 to old_local do
          Assignment.set t.assignment ((b + x) mod n) i
        done
  end

let serve t e =
  if e < 0 || e >= t.inst.Instance.n then
    invalid_arg "Dynamic_alg.serve: edge out of range";
  let r = t.route_of_edge.(e) in
  let i = r lsr route_bits in
  move_cut t i (Mts.serve t.solvers.(i) (r land route_mask))

(* --- O(state) snapshot ------------------------------------------------ *)

(* The whole online state is the per-interval solvers: the shift is a
   function of the seed (checked, not restored), and the cuts and the
   assignment are functions of the solver states. *)
let save t buf =
  Binc.add_varint buf t.dec.Intervals.shift;
  Binc.add_varint buf (Array.length t.solvers);
  Array.iter (Mts.snapshot buf) t.solvers

let load t r =
  let shift = Binc.read_varint r in
  if shift <> t.dec.Intervals.shift then
    invalid_arg
      (Printf.sprintf
         "Dynamic_alg.restore: snapshot has shift %d, this instance drew %d"
         shift t.dec.Intervals.shift);
  let m = Binc.read_varint r in
  if m <> Array.length t.solvers then
    invalid_arg
      (Printf.sprintf "Dynamic_alg.restore: snapshot has %d intervals, need %d"
         m (Array.length t.solvers));
  Array.iter (Mts.restore r) t.solvers;
  let n = t.inst.Instance.n in
  Array.iteri
    (fun i solver ->
      t.cut_locals.(i) <- Mts.state solver;
      t.cuts.(i) <- (t.bases.(i) + t.cut_locals.(i)) mod n)
    t.solvers;
  apply_cuts t

let online t =
  Rbgp_ring.Online.make ~name:"onl-dynamic"
    ~augmentation:
      (float_of_int (Intervals.max_slice_len t.dec)
      /. float_of_int t.inst.Instance.k)
    ~assignment:(fun () -> t.assignment)
    ~serve:(fun e -> serve t e)
    ~save:(save t) ~load:(load t)

let cut_edges t = Array.copy t.cuts

let interval_hit_cost t =
  Array.fold_left (fun acc s -> acc +. Mts.hit_cost s) 0.0 t.solvers

let interval_move_cost t =
  Array.fold_left (fun acc s -> acc +. Mts.move_cost s) 0.0 t.solvers

let decomposition t = t.dec
