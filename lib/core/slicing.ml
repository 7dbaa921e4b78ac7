module Instance = Rbgp_ring.Instance
module Segment = Rbgp_ring.Segment
module Player = Rbgp_hitting.Interval_growing
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
  player : Player.t;  (* its segment, cut edge and rank *)
  mutable status : status;
}

type t = {
  inst : Instance.t;
  delta_bar : float;
  rng : Rng.t;
  x : float array;  (* every player's counts *)
  intervals : interval array;
  covering : int list array;
      (* edge -> the ids of the active intervals holding it, ascending *)
  mutable events : event list;  (* this request's, newest first *)
  mutable hit : int;
  mutable move : int;
}

let n t = t.inst.Instance.n

let seg t itv =
  Segment.make ~n:(n t) ~start:(Player.first itv.player)
    ~len:(Player.width itv.player)

(* --- the edge -> active-interval index ---------------------------------- *)

let rec insert id = function
  | [] -> [ id ]
  | x :: rest as ids ->
      if id < x then id :: ids else if id = x then ids else x :: insert id rest

let update_covering t itv f =
  let first = Player.first itv.player in
  for j = 0 to Player.width itv.player - 2 do
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
  let geometry = Player.Ring { n; k = inst.Instance.k } in
  let intervals =
    Array.of_list
      (List.mapi
         (fun id e ->
           {
             id;
             center = e;
             player = Player.create geometry ~delta_bar ~counts:x rng e;
             status = Active;
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

(* [Segment.subset] of the two intervals.  A growth tests every
   interval, so this builds no segments. *)
let contains t outer inner =
  let n = n t and w = Player.width outer.player in
  let off = Player.first inner.player - Player.first outer.player in
  w >= n || ((off + n) mod n) + Player.width inner.player <= w

(* the player moved [dist] inside its interval, from [from_edge] *)
let moved t itv ~from_edge dist =
  t.move <- t.move + dist;
  t.events <-
    Cut_moved
      { id = itv.id; from_edge; to_edge = Player.position itv.player; dist }
    :: t.events

let deactivate t itv reason =
  Log.debug (fun m ->
      m "interval %d deactivated (%s), cut %d removed" itv.id
        (match reason with
        | Mono -> "monochromatic"
        | Dominated -> "dominated"
        | Active -> assert false)
        (Player.position itv.player));
  itv.status <- reason;
  uncover t itv;
  t.events <-
    Cut_removed { id = itv.id; edge = Player.position itv.player; reason }
    :: t.events

(* The interval doubles.  Unless that makes it monochromatic, it
   deactivates every active interval it now contains and its player
   draws a fresh cut edge from the grown distribution. *)
let grow t itv =
  Player.double itv.player;
  let grown = seg t itv in
  Log.debug (fun m ->
      m "interval %d grew to rank %d (%a)" itv.id (Player.rank itv.player)
        Segment.pp grown);
  if is_mono t grown then deactivate t itv Mono
  else begin
    cover t itv;
    Array.iter
      (fun other ->
        if other.id <> itv.id && other.status = Active && contains t itv other
        then deactivate t other Dominated)
      t.intervals;
    let from_edge = Player.position itv.player in
    let d = Player.resample itv.player in
    if d > 0 then moved t itv ~from_edge d
  end

let rec charge_hits t e = function
  | [] -> ()
  | id :: ids ->
      if Player.position t.intervals.(id).player = e then t.hit <- t.hit + 1;
      charge_hits t e ids

let rec step_intervals t e = function
  | [] -> ()
  | id :: ids ->
      let itv = t.intervals.(id) in
      if itv.status = Active then begin
        let from_edge = Player.position itv.player in
        let d = Player.step itv.player e in
        if d > 0 then moved t itv ~from_edge d;
        while itv.status = Active && Player.due itv.player do
          grow t itv
        done
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
  |> List.map (fun itv -> (itv.id, Player.position itv.player))

let get t id =
  if id < 0 || id >= Array.length t.intervals then
    invalid_arg "Slicing: interval id out of range";
  t.intervals.(id)

let interval_seg t id = seg t (get t id)
let interval_status t id = (get t id).status
let interval_rank t id = Player.rank (get t id).player
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
   distances): varints.  A player's weights are omitted: they are
   rebuilt from its segment under the current counts. *)
let save buf t =
  Binc.add_counts buf t.x;
  Rng.save buf t.rng;
  Binc.add_varint buf (Array.length t.intervals);
  Array.iter
    (fun itv ->
      Binc.add_varint buf (Player.first itv.player);
      Binc.add_varint buf (Player.width itv.player);
      Binc.add_varint buf (status_tag itv.status);
      Binc.add_varint buf (Player.position itv.player);
      Binc.add_varint buf (Player.rank itv.player))
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
      let width = read_nat r "segment length" in
      let status =
        match Binc.read_varint r with
        | 0 -> Active
        | 1 -> Mono
        | 2 -> Dominated
        | tag -> invalid_arg (Printf.sprintf "Slicing.load: bad status %d" tag)
      in
      let position = read_nat r "cut" in
      let rank = read_nat r "rank" in
      if first >= n || width < 2 || width > n || position >= n then
        invalid_arg "Slicing.load: interval out of range";
      Player.restore itv.player ~first ~width ~position ~rank;
      itv.status <- status;
      (* every interval Slicing grows holds its cut edge *)
      if status = Active && not (Player.holds itv.player position) then
        invalid_arg "Slicing.load: cut outside its interval")
    t.intervals;
  t.hit <- read_nat r "hit cost";
  t.move <- read_nat r "move cost";
  Array.fill t.covering 0 n [];
  Array.iter (fun itv -> if itv.status = Active then cover t itv) t.intervals
