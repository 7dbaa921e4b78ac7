module Instance = Rbgp_ring.Instance
module Segment = Rbgp_ring.Segment
module Binc = Rbgp_util.Binc

type kind = Color of int | Singleton

type cluster = {
  cid : int;
  kind : kind;
  mutable size : int;
  mutable server : int;
}

type slice = { sid : int; mutable seg : Segment.t; mutable cluster : cluster }

type t = {
  inst : Instance.t;
  prefix : int array array;  (* prefix.(c).(p) = #initial color c in [0,p) *)
  cut_count : int array;
  mutable num_cuts : int;  (* distinct cut positions *)
  by_start : slice option array;  (* indexed by the cut the slice starts after *)
  by_end : slice option array;  (* indexed by the cut the slice ends at *)
  mutable whole : slice option;  (* the single slice when no cuts remain *)
  registry : (int, cluster) Hashtbl.t;
  color_clusters : cluster array;
  mutable next_sid : int;
  mutable next_cid : int;
  mutable move : int;
  mutable merge : int;
  mutable mono : int;
}

let n t = t.inst.Instance.n

(* --- color counting ------------------------------------------------ *)

let count_color t c seg =
  let a = Segment.first seg and len = Segment.length seg in
  let b = a + len in
  if b <= n t then t.prefix.(c).(b) - t.prefix.(c).(a)
  else t.prefix.(c).(n t) - t.prefix.(c).(a) + t.prefix.(c).(b - n t)

let majority t seg =
  let best_c = ref 0 and best = ref (-1) in
  for c = 0 to t.inst.Instance.ell - 1 do
    let v = count_color t c seg in
    if v > !best then begin
      best := v;
      best_c := c
    end
  done;
  (!best_c, !best)

(* --- cluster plumbing ---------------------------------------------- *)

let fresh_singleton t ~server =
  let c = { cid = t.next_cid; kind = Singleton; size = 0; server } in
  t.next_cid <- t.next_cid + 1;
  Hashtbl.replace t.registry c.cid c;
  c

let detach t slice =
  let c = slice.cluster in
  c.size <- c.size - Segment.length slice.seg;
  if c.size = 0 && c.kind = Singleton then Hashtbl.remove t.registry c.cid

let attach slice cluster =
  slice.cluster <- cluster;
  cluster.size <- cluster.size + Segment.length slice.seg

(* The examine rule: decide the cluster of a changed slice given the
   cluster of its previous version.  Charges the monochromatic cost. *)
let examine t slice ~parent =
  let seg = slice.seg in
  let len = Segment.length seg in
  let maj, cnt = majority t seg in
  let target =
    if 2 * cnt <= len then `Fresh
    else if 4 * cnt > 3 * len then `Color maj
    else
      match parent.kind with
      | Color c when c = maj -> `Color maj
      | Color _ | Singleton -> `Fresh
  in
  match target with
  | `Color c ->
      let cc = t.color_clusters.(c) in
      if cc != parent && 4 * cnt > 3 * len then t.mono <- t.mono + len;
      attach slice cc
  | `Fresh ->
      (* a fresh singleton on the parent's server: leaving a cluster is
         free (no process needs to move for it) *)
      let c = fresh_singleton t ~server:parent.server in
      attach slice c

(* --- slice structure ----------------------------------------------- *)

let new_slice t seg cluster =
  let s = { sid = t.next_sid; seg; cluster } in
  t.next_sid <- t.next_sid + 1;
  cluster.size <- cluster.size + Segment.length seg;
  s

let start_cut_of t slice = ((Segment.first slice.seg - 1) + n t) mod n t
let end_cut_of slice = Segment.last slice.seg

let register t slice =
  t.by_start.(start_cut_of t slice) <- Some slice;
  t.by_end.(end_cut_of slice) <- Some slice

let unregister t slice =
  t.by_start.(start_cut_of t slice) <- None;
  t.by_end.(end_cut_of slice) <- None

(* slice whose segment contains edge e (processes e and e+1); only valid
   when e is not itself a live cut *)
let slice_containing_edge t e =
  match t.whole with
  | Some s -> s
  | None ->
      let rec back i steps =
        if steps > n t then failwith "Clustering: no cut found"
        else if t.cut_count.(i) > 0 then i
        else back (((i - 1) + n t) mod n t) (steps + 1)
      in
      let a = back (((e - 1) + n t) mod n t) 1 in
      (match t.by_start.(a) with
      | Some s -> s
      | None -> failwith "Clustering: dangling cut")

let structural_split t e =
  match t.whole with
  | Some s ->
      (* re-root the whole-ring slice at the new cut; no size change and
         no cluster examination (the slice's content is unchanged) *)
      t.whole <- None;
      s.seg <- Segment.make ~n:(n t) ~start:((e + 1) mod n t) ~len:(n t);
      register t s
  | None ->
      let s = slice_containing_edge t e in
      let parent = s.cluster in
      unregister t s;
      detach t s;
      let a = Segment.first s.seg and b = Segment.last s.seg in
      let seg1 = Segment.of_endpoints ~n:(n t) a e in
      let seg2 = Segment.of_endpoints ~n:(n t) ((e + 1) mod n t) b in
      s.seg <- seg1;
      let s2 = new_slice t seg2 parent in
      detach t s2;
      (* both halves are re-examined against the parent cluster *)
      examine t s ~parent;
      examine t s2 ~parent;
      register t s;
      register t s2

let structural_merge t e =
  let s1 = t.by_end.(e) and s2 = t.by_start.(e) in
  match (s1, s2) with
  | Some s1, Some s2 when s1 != s2 ->
      unregister t s1;
      unregister t s2;
      let len1 = Segment.length s1.seg and len2 = Segment.length s2.seg in
      if s1.cluster != s2.cluster then
        t.merge <- t.merge + Stdlib.min len1 len2;
      let larger = if len1 >= len2 then s1 else s2 in
      let parent = larger.cluster in
      let merged_seg =
        Segment.of_endpoints ~n:(n t) (Segment.first s1.seg)
          (Segment.last s2.seg)
      in
      detach t s1;
      detach t s2;
      s1.seg <- merged_seg;
      examine t s1 ~parent;
      register t s1
  | Some s1, Some s2 when s1 == s2 ->
      (* the slice wraps the whole ring (single cut removed) *)
      unregister t s1;
      t.whole <- Some s1
  | _ -> failwith "Clustering: merge at non-boundary edge"

let add_cut t e =
  t.cut_count.(e) <- t.cut_count.(e) + 1;
  if t.cut_count.(e) = 1 then begin
    t.num_cuts <- t.num_cuts + 1;
    structural_split t e
  end

let remove_cut t e =
  if t.cut_count.(e) <= 0 then failwith "Clustering: removing absent cut";
  t.cut_count.(e) <- t.cut_count.(e) - 1;
  if t.cut_count.(e) = 0 then begin
    t.num_cuts <- t.num_cuts - 1;
    structural_merge t e
  end

(* --- public -------------------------------------------------------- *)

let create (inst : Instance.t) =
  let n = inst.Instance.n in
  let prefix =
    Array.init inst.Instance.ell (fun c ->
        let p = Array.make (n + 1) 0 in
        for i = 0 to n - 1 do
          p.(i + 1) <- p.(i) + if inst.Instance.initial.(i) = c then 1 else 0
        done;
        p)
  in
  let color_clusters =
    Array.init inst.Instance.ell (fun c ->
        { cid = c; kind = Color c; size = 0; server = c })
  in
  let t =
    {
      inst;
      prefix;
      cut_count = Array.make n 0;
      num_cuts = 0;
      by_start = Array.make n None;
      by_end = Array.make n None;
      whole = None;
      registry = Hashtbl.create 64;
      color_clusters;
      next_sid = 0;
      next_cid = inst.Instance.ell;
      move = 0;
      merge = 0;
      mono = 0;
    }
  in
  Array.iter (fun c -> Hashtbl.replace t.registry c.cid c) color_clusters;
  let cuts = Instance.initial_cut_edges inst in
  (match cuts with
  | [] ->
      (* ring entirely on one server: a single whole slice *)
      let c = inst.Instance.initial.(0) in
      let s = new_slice t (Segment.whole ~n) t.color_clusters.(c) in
      t.whole <- Some s
  | cuts ->
      List.iter (fun e -> t.cut_count.(e) <- 1) cuts;
      t.num_cuts <- List.length cuts;
      let arr = Array.of_list cuts in
      let m = Array.length arr in
      for i = 0 to m - 1 do
        let a = arr.(i) and b = arr.((i + 1) mod m) in
        let seg = Segment.of_endpoints ~n ((a + 1) mod n) b in
        let color = inst.Instance.initial.((a + 1) mod n) in
        let s = new_slice t seg t.color_clusters.(color) in
        register t s
      done);
  t

let apply_event t = function
  | Slicing.Cut_moved { from_edge; to_edge; dist; _ } ->
      t.move <- t.move + dist;
      add_cut t to_edge;
      remove_cut t from_edge
  | Slicing.Cut_removed { edge; _ } -> remove_cut t edge

let clusters t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.registry []
  |> List.sort (fun a b -> Int.compare a.cid b.cid)

let iter_slices t f =
  match t.whole with
  | Some s -> f s
  | None ->
      Array.iter (function Some s -> f s | None -> ()) t.by_start

let assignment_into t out =
  if Array.length out <> n t then
    invalid_arg "Clustering.assignment_into: bad length";
  iter_slices t (fun s ->
      Segment.iter (fun p -> out.(p) <- s.cluster.server) s.seg)

let slices t =
  let acc = ref [] in
  iter_slices t (fun s -> acc := (s.seg, s.cluster) :: !acc);
  !acc

let cut_edges t =
  let acc = ref [] in
  for e = n t - 1 downto 0 do
    if t.cut_count.(e) > 0 then acc := e :: !acc
  done;
  !acc

let move_cost t = t.move
let merge_cost t = t.merge
let mono_cost t = t.mono

let check_consistency t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let covered = Array.make (n t) 0 in
  let cluster_sizes = Hashtbl.create 16 in
  iter_slices t (fun s ->
      Segment.iter (fun p -> covered.(p) <- covered.(p) + 1) s.seg;
      let cur =
        Option.value ~default:0 (Hashtbl.find_opt cluster_sizes s.cluster.cid)
      in
      Hashtbl.replace cluster_sizes s.cluster.cid
        (cur + Segment.length s.seg));
  Array.iteri
    (fun p c -> if c <> 1 then err "process %d covered %d times" p c)
    covered;
  Hashtbl.iter
    (fun cid size ->
      match Hashtbl.find_opt t.registry cid with
      | None -> err "cluster %d has slices but is unregistered" cid
      | Some c ->
          if c.size <> size then
            err "cluster %d size %d but slices sum to %d" cid c.size size)
    cluster_sizes;
  Hashtbl.iter
    (fun cid c ->
      if c.size <> 0 && not (Hashtbl.mem cluster_sizes cid) then
        err "cluster %d claims size %d but has no slices" cid c.size)
    t.registry;
  let distinct = ref 0 in
  Array.iter (fun c -> if c > 0 then incr distinct) t.cut_count;
  if !distinct <> t.num_cuts then
    err "num_cuts=%d but %d distinct positions" t.num_cuts !distinct;
  match !errors with [] -> Ok () | l -> Error (String.concat "; " l)

(* --- O(state) snapshot ------------------------------------------------- *)

(* Layout: cut counts; clusters sorted by cid (kind tag 0 = singleton,
   c + 1 = color c; size; server); the whole-ring slice if any, else the
   slices in start-cut order (start cut, sid, length, cid); then the id
   counters and the three costs.  The color-prefix table and [num_cuts]
   are derived, and by_end follows from by_start. *)
let save buf t =
  Array.iter (Binc.add_varint buf) t.cut_count;
  let cs = clusters t in
  Binc.add_varint buf (List.length cs);
  List.iter
    (fun c ->
      Binc.add_varint buf c.cid;
      Binc.add_varint buf (match c.kind with Singleton -> 0 | Color k -> k + 1);
      Binc.add_varint buf c.size;
      Binc.add_varint buf c.server)
    cs;
  let add_slice a s =
    Binc.add_varint buf a;
    Binc.add_varint buf s.sid;
    Binc.add_varint buf (Segment.length s.seg);
    Binc.add_varint buf s.cluster.cid
  in
  (match t.whole with
  | Some s ->
      Binc.add_varint buf 1;
      add_slice (start_cut_of t s) s
  | None ->
      Binc.add_varint buf 0;
      let live =
        Array.fold_left
          (fun acc o -> if Option.is_some o then acc + 1 else acc)
          0 t.by_start
      in
      Binc.add_varint buf live;
      Array.iteri
        (fun a o -> match o with Some s -> add_slice a s | None -> ())
        t.by_start);
  Binc.add_varint buf t.next_sid;
  Binc.add_varint buf t.next_cid;
  Binc.add_varint buf t.move;
  Binc.add_varint buf t.merge;
  Binc.add_varint buf t.mono

let load r t =
  let n = n t and ell = t.inst.Instance.ell in
  let bad fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Clustering.load: " ^ m)) fmt
  in
  let nat what =
    let v = Binc.read_varint r in
    if v < 0 then bad "negative %s" what;
    v
  in
  t.num_cuts <- 0;
  for e = 0 to n - 1 do
    t.cut_count.(e) <- nat "cut count";
    if t.cut_count.(e) > 0 then t.num_cuts <- t.num_cuts + 1
  done;
  Hashtbl.reset t.registry;
  let m = nat "cluster count" in
  for _ = 1 to m do
    let cid = nat "cid" in
    let tag = nat "cluster kind" in
    let size = nat "cluster size" in
    let server = nat "server" in
    if server >= ell then
      bad "cluster %d on server %d (ell = %d)" cid server ell;
    if Hashtbl.mem t.registry cid then bad "cluster %d listed twice" cid;
    let c =
      if tag = 0 then begin
        if cid < ell then bad "singleton %d uses a color cid" cid;
        { cid; kind = Singleton; size; server }
      end
      else begin
        if cid <> tag - 1 || cid >= ell then bad "bad color cluster %d" cid;
        t.color_clusters.(cid)
      end
    in
    c.size <- size;
    c.server <- server;
    Hashtbl.replace t.registry cid c
  done;
  Array.iter
    (fun c ->
      if not (Hashtbl.mem t.registry c.cid) then
        bad "color cluster %d missing" c.cid)
    t.color_clusters;
  Array.fill t.by_start 0 n None;
  Array.fill t.by_end 0 n None;
  t.whole <- None;
  let read_slice () =
    let a = nat "start cut" in
    let sid = nat "sid" in
    let len = nat "slice length" in
    let cid = nat "slice cid" in
    if a >= n || len < 1 || len > n then bad "slice out of range";
    let cluster =
      match Hashtbl.find_opt t.registry cid with
      | Some c -> c
      | None -> bad "slice %d in unknown cluster %d" sid cid
    in
    { sid; seg = Segment.make ~n ~start:((a + 1) mod n) ~len; cluster }
  in
  (match nat "whole tag" with
  | 1 -> t.whole <- Some (read_slice ())
  | 0 ->
      for _ = 1 to nat "slice count" do
        let s = read_slice () in
        if Option.is_some t.by_start.(start_cut_of t s) then
          bad "two slices start after cut %d" (start_cut_of t s);
        register t s
      done
  | tag -> bad "bad whole-ring tag %d" tag);
  t.next_sid <- nat "next sid";
  t.next_cid <- nat "next cid";
  t.move <- nat "move cost";
  t.merge <- nat "merge cost";
  t.mono <- nat "mono cost"
