module Instance = Rbgp_ring.Instance
module Segment = Rbgp_ring.Segment
module Dist = Rbgp_util.Dist
module Smin_weights = Rbgp_util.Smin_weights
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
  mutable weights : Smin_weights.t;
      (* grad smin over the interval's edge counts, local order; read
         while Active *)
  mutable rank : int;
}

type t = {
  inst : Instance.t;
  delta_bar : float;
  rng : Rng.t;
  x : float array;
  intervals : interval array;
  covering : int list array;
      (* edge -> the ids of the active intervals holding it, ascending *)
  mutable events : event list;  (* this request's, newest first *)
  mutable hit : int;
  mutable move : int;
}

let n t = t.inst.Instance.n
let k t = t.inst.Instance.k

let edge_count_of seg = Segment.length seg - 1

(* local index of global edge e in the interval, for e inside it *)
let local t itv e =
  let d = (e - itv.seg.Segment.start) mod n t in
  if d < 0 then d + n t else d

(* The interval's player over its edges, with the same scale c as the
   dense grad smin_c of its edge counts. *)
let weights_of x seg =
  let m = edge_count_of seg and first = Segment.first seg in
  let c = Float.max 1.0 (float_of_int m) in
  Smin_weights.create ~c
    (Array.init m (fun j -> x.((first + j) mod Array.length x)))

(* --- the edge -> active-interval index ---------------------------------- *)

let rec insert id = function
  | [] -> [ id ]
  | x :: rest as ids ->
      if id < x then id :: ids else if id = x then ids else x :: insert id rest

let update_covering t itv f =
  let first = Segment.first itv.seg in
  for j = 0 to edge_count_of itv.seg - 1 do
    let e = (first + j) mod n t in
    t.covering.(e) <- f t.covering.(e)
  done

let cover t itv = update_covering t itv (insert itv.id)
let uncover t itv = update_covering t itv (List.filter (fun id -> id <> itv.id))

let create ?(delta_bar = 14.0 /. 15.0) (inst : Instance.t) rng =
  if not (delta_bar > 0.5 && delta_bar < 1.0) then
    invalid_arg "Slicing.create: delta_bar out of (1/2, 1)";
  if inst.Instance.n <= inst.Instance.k then
    invalid_arg "Slicing.create: requires n > k";
  let n = inst.Instance.n in
  let x = Array.make n 0.0 in
  let intervals =
    Array.of_list
      (List.mapi
         (fun id e ->
           let seg = Segment.make ~n ~start:e ~len:2 in
           {
             id;
             center = e;
             seg;
             status = Active;
             cut = e;
             weights = weights_of x seg;
             rank = 0;
           })
         (Instance.initial_cut_edges inst))
  in
  let t =
    {
      inst;
      delta_bar;
      rng;
      x;
      intervals;
      covering = Array.make n [];
      events = [];
      hit = 0;
      move = 0;
    }
  in
  Array.iter (cover t) intervals;
  t

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

(* the cut moves from local edge [from_local] to [to_local], a distance
   measured inside the interval *)
let move_cut t itv ~from_local ~to_local =
  let to_edge = (Segment.first itv.seg + to_local) mod n t in
  let d = abs (to_local - from_local) in
  t.move <- t.move + d;
  t.events <-
    Cut_moved { id = itv.id; from_edge = itv.cut; to_edge; dist = d }
    :: t.events;
  itv.cut <- to_edge

let deactivate t itv reason =
  Log.debug (fun m ->
      m "interval %d deactivated (%s), cut %d removed" itv.id
        (match reason with
        | Mono -> "monochromatic"
        | Dominated -> "dominated"
        | Active -> assert false)
        itv.cut);
  itv.status <- reason;
  uncover t itv;
  t.events <- Cut_removed { id = itv.id; edge = itv.cut; reason } :: t.events

(* The interval doubles around its center.  Unless that makes it
   monochromatic, it deactivates every active interval it now contains
   and draws a fresh cut edge from its grown distribution. *)
let grow t itv =
  itv.seg <- grow_seg t itv.seg;
  itv.rank <- itv.rank + 1;
  Log.debug (fun m ->
      m "interval %d grew to rank %d (%a)" itv.id itv.rank Segment.pp itv.seg);
  if is_mono t itv.seg then deactivate t itv Mono
  else begin
    cover t itv;
    Array.iter
      (fun other ->
        if
          other.id <> itv.id && other.status = Active
          && Segment.subset other.seg itv.seg
        then deactivate t other Dominated)
      t.intervals;
    itv.weights <- weights_of t.x itv.seg;
    let from_local = local t itv itv.cut in
    let to_local = Dist.sample t.rng (Smin_weights.dist itv.weights) in
    if to_local <> from_local then move_cut t itv ~from_local ~to_local
  end

let try_grow t itv =
  let cap = Stdlib.min (k t + 1) (n t) in
  let continue = ref true in
  while !continue && itv.status = Active do
    let w = Segment.length itv.seg in
    if
      w < cap
      && float_of_int (Smin_weights.min_count itv.weights)
         >= (1.0 -. t.delta_bar) *. float_of_int w
    then grow t itv
    else continue := false
  done

let rec charge_hits t e = function
  | [] -> ()
  | id :: ids ->
      if t.intervals.(id).cut = e then t.hit <- t.hit + 1;
      charge_hits t e ids

let rec step_intervals t e = function
  | [] -> ()
  | id :: ids ->
      let itv = t.intervals.(id) in
      if itv.status = Active then begin
        let from_local = local t itv itv.cut in
        let to_local =
          Smin_weights.step itv.weights t.rng (local t itv e) from_local
        in
        if to_local <> from_local then move_cut t itv ~from_local ~to_local;
        try_grow t itv
      end;
      step_intervals t e ids

(* The intervals holding [e] are found through [covering], in id order.
   A growth deactivates intervals and so replaces lists, but the walk
   goes on over the list as it stood, skipping an interval deactivated
   before its turn; only the interval being visited grows, so no other
   interval comes to hold [e] meanwhile. *)
let serve t e =
  if e < 0 || e >= n t then invalid_arg "Slicing.serve: edge out of range";
  let ids = t.covering.(e) in
  (* hitting cost: charged per interval whose current cut is requested *)
  charge_hits t e ids;
  t.x.(e) <- t.x.(e) +. 1.0;
  step_intervals t e ids;
  match t.events with
  | [] -> []
  | events ->
      t.events <- [];
      List.rev events

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
let hit_cost t = float_of_int t.hit
let move_cost t = float_of_int t.move
let request_count t e = int_of_float t.x.(e)

(* --- O(state) snapshot ------------------------------------------------- *)

let status_tag = function Active -> 0 | Mono -> 1 | Dominated -> 2

let read_nat r what =
  let v = Binc.read_varint r in
  if v < 0 then invalid_arg (Printf.sprintf "Slicing.load: negative %s" what);
  v

(* Request counts, hit and move are whole numbers (unit requests, integer
   distances): varints.  An interval's weights are omitted: while the
   interval is active they are [weights_of] its segment under the current
   counts, and an inactive interval never reads them again. *)
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
  Binc.add_varint buf t.hit;
  Binc.add_varint buf t.move

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
      (* every interval Slicing grows holds its cut edge *)
      if status = Active && local t itv cut >= len - 1 then
        invalid_arg "Slicing.load: cut outside its interval")
    t.intervals;
  t.hit <- read_nat r "hit cost";
  t.move <- read_nat r "move cost";
  Array.fill t.covering 0 n [];
  Array.iter
    (fun itv ->
      if itv.status = Active then begin
        itv.weights <- weights_of t.x itv.seg;
        cover t itv
      end)
    t.intervals
