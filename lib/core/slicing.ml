module Instance = Rbgp_ring.Instance
module Segment = Rbgp_ring.Segment
module Dist = Rbgp_util.Dist
module Smin = Rbgp_util.Smin
module Rng = Rbgp_util.Rng
module Binc = Rbgp_util.Binc

let log_src = Logs.Src.create "rbgp.slicing" ~doc:"Slicing procedure events"

module Log = (val Logs.src_log log_src)

type status = Active | Mono | Dominated

type event =
  | Cut_moved of { id : int; from_edge : int; to_edge : int; dist : int }
  | Cut_removed of { id : int; edge : int; reason : status }

type interval = {
  id : int;
  center : int;  (* the initial cut edge this interval grew from *)
  mutable seg : Segment.t;  (* vertex segment; edges = first..last-1 *)
  mutable status : status;
  mutable cut : int;  (* global edge; meaningful while Active *)
  mutable dist : Dist.t;  (* over the interval's edges, local order *)
  mutable rank : int;
}

type t = {
  inst : Instance.t;
  delta_bar : float;
  rng : Rng.t;
  x : float array;
  intervals : interval array;
  mutable hit : float;
  mutable move : float;
}

let n t = t.inst.Instance.n
let k t = t.inst.Instance.k

let edge_count_of seg = Segment.length seg - 1

(* local index of edge e within interval segment, or None *)
let local_edge seg e =
  let off = Segment.cw_distance ~n:seg.Segment.n (Segment.first seg) e in
  if off < edge_count_of seg then Some off else None

let dist_of t seg =
  let m = edge_count_of seg in
  let c = Float.max 1.0 (float_of_int m) in
  let buf = Array.make m 0.0 in
  (* the interval may wrap, so gather the counts explicitly *)
  let first = Segment.first seg in
  let xs = Array.init m (fun j -> t.x.((first + j) mod n t)) in
  Smin.grad_sub_into ~c xs ~lo:0 ~hi:(m - 1) buf;
  Dist.of_grad buf

let create ?(delta_bar = 14.0 /. 15.0) (inst : Instance.t) rng =
  if not (delta_bar > 0.5 && delta_bar < 1.0) then
    invalid_arg "Slicing.create: delta_bar out of (1/2, 1)";
  if inst.Instance.n <= inst.Instance.k then
    invalid_arg "Slicing.create: requires n > k";
  let cuts = Instance.initial_cut_edges inst in
  let t =
    {
      inst;
      delta_bar;
      rng;
      x = Array.make inst.Instance.n 0.0;
      intervals = [||];
      hit = 0.0;
      move = 0.0;
    }
  in
  let intervals =
    List.mapi
      (fun id e ->
        let seg = Segment.make ~n:inst.Instance.n ~start:e ~len:2 in
        {
          id;
          center = e;
          seg;
          status = Active;
          cut = e;
          dist = Dist.point 0 ~n:1;
          rank = 0;
        })
      cuts
  in
  let t = { t with intervals = Array.of_list intervals } in
  Array.iter (fun itv -> itv.dist <- dist_of t itv.seg) t.intervals;
  t

let min_count t seg =
  let first = Segment.first seg in
  let m = edge_count_of seg in
  let mn = ref infinity in
  for j = 0 to m - 1 do
    let v = t.x.((first + j) mod n t) in
    if v < !mn then mn := v
  done;
  !mn

let is_mono t seg =
  let counts = Array.make t.inst.Instance.ell 0 in
  Segment.iter
    (fun p ->
      let c = t.inst.Instance.initial.(p) in
      counts.(c) <- counts.(c) + 1)
    seg;
  let best = Array.fold_left Stdlib.max 0 counts in
  float_of_int best > t.delta_bar *. float_of_int (Segment.length seg)

let grow_seg t seg =
  let w = Segment.length seg in
  let desired = Stdlib.min (2 * w) (Stdlib.min (k t + 1) (n t)) in
  let extra = desired - w in
  let left = extra / 2 in
  Segment.make ~n:(n t) ~start:(Segment.first seg - left) ~len:desired

let resample_cut t itv events =
  let new_dist = dist_of t itv.seg in
  let first = Segment.first itv.seg in
  let old_local = local_edge itv.seg itv.cut in
  let new_local =
    match old_local with
    | Some cur when Dist.size itv.dist = Dist.size new_dist ->
        Dist.resample_coupled t.rng ~current:cur ~old_dist:itv.dist ~new_dist
    | _ ->
        (* interval changed shape (growth): fresh sample *)
        Dist.sample t.rng new_dist
  in
  itv.dist <- new_dist;
  let new_cut = (first + new_local) mod n t in
  if new_cut <> itv.cut then begin
    let d =
      match old_local with
      | Some cur -> abs (new_local - cur)
      | None ->
          (* distance measured inside the new interval *)
          Segment.ring_distance ~n:(n t) itv.cut new_cut
    in
    t.move <- t.move +. float_of_int d;
    events :=
      Cut_moved { id = itv.id; from_edge = itv.cut; to_edge = new_cut; dist = d }
      :: !events;
    itv.cut <- new_cut
  end

let deactivate t itv reason events =
  ignore t;
  Log.debug (fun m ->
      m "interval %d deactivated (%s), cut %d removed" itv.id
        (match reason with
        | Mono -> "monochromatic"
        | Dominated -> "dominated"
        | Active -> assert false)
        itv.cut);
  itv.status <- reason;
  events := Cut_removed { id = itv.id; edge = itv.cut; reason } :: !events

let try_grow t itv events =
  let continue = ref true in
  while !continue && itv.status = Active do
    let w = Segment.length itv.seg in
    if w >= Stdlib.min (k t + 1) (n t) then continue := false
    else if min_count t itv.seg >= (1.0 -. t.delta_bar) *. float_of_int w
    then begin
      itv.seg <- grow_seg t itv.seg;
      itv.rank <- itv.rank + 1;
      Log.debug (fun m ->
          m "interval %d grew to rank %d (%a)" itv.id itv.rank Segment.pp
            itv.seg);
      if is_mono t itv.seg then deactivate t itv Mono events
      else begin
        Array.iter
          (fun other ->
            if
              other.id <> itv.id && other.status = Active
              && Segment.subset other.seg itv.seg
            then deactivate t other Dominated events)
          t.intervals;
        (* fresh cut edge inside the grown interval *)
        itv.dist <- Dist.point 0 ~n:1;
        resample_cut t itv events
      end
    end
    else continue := false
  done

let serve t e =
  if e < 0 || e >= n t then invalid_arg "Slicing.serve: edge out of range";
  let events = ref [] in
  (* hitting cost: charged per interval whose current cut is requested *)
  Array.iter
    (fun itv ->
      if itv.status = Active && itv.cut = e then t.hit <- t.hit +. 1.0)
    t.intervals;
  t.x.(e) <- t.x.(e) +. 1.0;
  Array.iter
    (fun itv ->
      if itv.status = Active then
        match local_edge itv.seg e with
        | Some _ ->
            resample_cut t itv events;
            try_grow t itv events
        | None -> ())
    t.intervals;
  List.rev !events

let initial_cuts t =
  Array.to_list t.intervals |> List.map (fun itv -> itv.center)

let active_cuts t =
  Array.to_list t.intervals
  |> List.filter (fun itv -> itv.status = Active)
  |> List.map (fun itv -> (itv.id, itv.cut))

let get t id =
  if id < 0 || id >= Array.length t.intervals then
    invalid_arg "Slicing: interval id out of range";
  t.intervals.(id)

let interval_seg t id = (get t id).seg
let interval_status t id = (get t id).status
let interval_rank t id = (get t id).rank
let interval_count t = Array.length t.intervals
let hit_cost t = t.hit
let move_cost t = t.move
let request_count t e = int_of_float t.x.(e)

(* --- O(state) snapshot ------------------------------------------------- *)

let status_tag = function Active -> 0 | Mono -> 1 | Dominated -> 2

let read_nat r what =
  let v = Binc.read_varint r in
  if v < 0 then invalid_arg (Printf.sprintf "Slicing.load: negative %s" what);
  v

(* Request counts, hit and move are whole numbers (unit requests, integer
   distances): varints.  An interval's [dist] is omitted: while the
   interval is active it is [dist_of] its segment under the current
   counts, and an inactive interval never reads it again. *)
let save buf t =
  Binc.add_counts buf t.x;
  Rng.save buf t.rng;
  Binc.add_varint buf (Array.length t.intervals);
  Array.iter
    (fun itv ->
      Binc.add_varint buf (Segment.first itv.seg);
      Binc.add_varint buf (Segment.length itv.seg);
      Binc.add_varint buf (status_tag itv.status);
      Binc.add_varint buf itv.cut;
      Binc.add_varint buf itv.rank)
    t.intervals;
  Binc.add_varint buf (int_of_float t.hit);
  Binc.add_varint buf (int_of_float t.move)

let load r t =
  let n = n t in
  Binc.read_counts r t.x;
  Rng.load r t.rng;
  let m = Binc.read_varint r in
  if m <> Array.length t.intervals then
    invalid_arg
      (Printf.sprintf "Slicing.load: snapshot has %d intervals, need %d" m
         (Array.length t.intervals));
  Array.iter
    (fun itv ->
      let first = read_nat r "segment start" in
      let len = read_nat r "segment length" in
      let status =
        match Binc.read_varint r with
        | 0 -> Active
        | 1 -> Mono
        | 2 -> Dominated
        | tag -> invalid_arg (Printf.sprintf "Slicing.load: bad status %d" tag)
      in
      let cut = read_nat r "cut" in
      let rank = read_nat r "rank" in
      if first >= n || len < 2 || len > n || cut >= n then
        invalid_arg "Slicing.load: interval out of range";
      itv.seg <- Segment.make ~n ~start:first ~len;
      itv.status <- status;
      itv.cut <- cut;
      itv.rank <- rank;
      if status = Active then itv.dist <- dist_of t itv.seg)
    t.intervals;
  t.hit <- float_of_int (read_nat r "hit cost");
  t.move <- float_of_int (read_nat r "move cost")
