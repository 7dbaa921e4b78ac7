module Instance = Rbgp_ring.Instance
module Assignment = Rbgp_ring.Assignment
module Online = Rbgp_ring.Online
module Binc = Rbgp_util.Binc

(* Every baseline is deterministic with small, flat state, so each one
   implements the explicit Online snapshot/restore hooks: a versioned
   Binc-framed byte string holding the assignment plus whatever counters
   the algorithm keeps.  The serving layer uses these for O(state)
   checkpoint restores; the randomized core algorithms (whose split rng
   streams are not worth capturing) rely on its prefix-replay fallback
   instead. *)
let snap_version = 1

let snapshot_of name fill =
  let buf = Buffer.create 128 in
  Binc.add_varint buf snap_version;
  Binc.add_string buf name;
  fill buf;
  Buffer.contents buf

let open_snapshot name s =
  let r = Binc.reader s in
  let v = Binc.read_varint r in
  if v <> snap_version then
    invalid_arg
      (Printf.sprintf "%s: unsupported snapshot version %d" name v);
  let stored = Binc.read_string r in
  if not (String.equal stored name) then
    invalid_arg
      (Printf.sprintf "%s: snapshot belongs to algorithm %s" name stored);
  r

let restore_int_array name dst r =
  let src = Binc.read_int_array r in
  if Array.length src <> Array.length dst then
    invalid_arg (name ^ ": snapshot array length mismatch");
  Array.blit src 0 dst 0 (Array.length dst)

let never_move (inst : Instance.t) =
  let a = Assignment.create inst in
  let name = "never-move" in
  Online.with_state
    ~snapshot:(fun () ->
      snapshot_of name (fun buf -> Binc.add_int_array buf (Assignment.to_array a)))
    ~restore:(fun s ->
      let r = open_snapshot name s in
      Assignment.restore_array a (Binc.read_int_array r))
  @@ Online.make ~name ~augmentation:1.0
    ~assignment:(fun () -> a)
    ~serve:(fun _ -> ())

let greedy_colocate ?(threshold = 1) (inst : Instance.t) =
  if threshold < 1 then invalid_arg "greedy_colocate: threshold >= 1";
  let n = inst.Instance.n in
  let a = Assignment.create inst in
  let counts = Array.make n 0 in
  let serve e =
    let u = e and v = (e + 1) mod n in
    if Assignment.server_of a u <> Assignment.server_of a v then begin
      counts.(e) <- counts.(e) + 1;
      if counts.(e) >= threshold then begin
        counts.(e) <- 0;
        let su = Assignment.server_of a u and sv = Assignment.server_of a v in
        (* swap u with the process on v's server that is ring-farthest from
           v — a deterministic choice that tends to evict strays *)
        let victim = ref (-1) and victim_d = ref (-1) in
        for p = 0 to n - 1 do
          if p <> v && Assignment.server_of a p = sv then begin
            let d = Rbgp_ring.Segment.ring_distance ~n p v in
            if d > !victim_d then begin
              victim_d := d;
              victim := p
            end
          end
        done;
        if !victim >= 0 then begin
          Assignment.set a u sv;
          Assignment.set a !victim su
        end
      end
    end
  in
  let name = "greedy-colocate" in
  Online.with_state
    ~snapshot:(fun () ->
      snapshot_of name (fun buf ->
          Binc.add_int_array buf (Assignment.to_array a);
          Binc.add_int_array buf counts))
    ~restore:(fun s ->
      let r = open_snapshot name s in
      Assignment.restore_array a (Binc.read_int_array r);
      restore_int_array name counts r)
  @@ Online.make ~name ~augmentation:1.0
    ~assignment:(fun () -> a)
    ~serve

let counter_threshold ?theta ~epsilon (inst : Instance.t) =
  let n = inst.Instance.n and k = inst.Instance.k in
  let module Intervals = Rbgp_ring.Intervals in
  let dec = Intervals.make ~n ~k ~epsilon ~shift:0 in
  let ell' = dec.Intervals.ell' in
  if ell' > inst.Instance.ell then
    invalid_arg "counter_threshold: epsilon too small for this instance";
  let theta = match theta with Some t -> t | None -> dec.Intervals.k' in
  if theta < 1 then invalid_arg "counter_threshold: theta >= 1";
  let a = Assignment.create inst in
  (* cut edge per interval: start at the first initial cut edge inside *)
  let cuts =
    Array.init ell' (fun i ->
        let w = Intervals.width dec i in
        let rec find j =
          if j >= w then Intervals.to_global dec i 0
          else
            let e = Intervals.to_global dec i j in
            if inst.Instance.initial.(e) <> inst.Instance.initial.((e + 1) mod n)
            then e
            else find (j + 1)
        in
        find 0)
  in
  let counts = Array.make n 0 in
  let apply_cuts () =
    Array.iter
      (fun (server, seg) ->
        Rbgp_ring.Segment.iter (fun p -> Assignment.set a p server) seg)
      (Intervals.slices_of_cuts dec cuts)
  in
  apply_cuts ();
  let serve e =
    counts.(e) <- counts.(e) + 1;
    let i, _ = Intervals.locate dec e in
    if cuts.(i) = e && counts.(e) >= theta then begin
      (* move to the least-requested edge of the interval *)
      let w = Intervals.width dec i in
      let best = ref 0 in
      for j = 0 to w - 1 do
        let f = Intervals.to_global dec i j in
        if counts.(f) < counts.(Intervals.to_global dec i !best) then best := j
      done;
      counts.(e) <- 0;
      let target = Intervals.to_global dec i !best in
      if target <> cuts.(i) then begin
        cuts.(i) <- target;
        apply_cuts ()
      end
    end
  in
  let name = "counter-threshold" in
  Online.with_state
    ~snapshot:(fun () ->
      snapshot_of name (fun buf ->
          Binc.add_int_array buf (Assignment.to_array a);
          Binc.add_int_array buf counts;
          Binc.add_int_array buf cuts))
    ~restore:(fun s ->
      let r = open_snapshot name s in
      Assignment.restore_array a (Binc.read_int_array r);
      restore_int_array name counts r;
      restore_int_array name cuts r)
  @@ Online.make ~name
    ~augmentation:
      (float_of_int (Intervals.max_slice_len dec) /. float_of_int k)
    ~assignment:(fun () -> a)
    ~serve

let component_learning (inst : Instance.t) =
  let n = inst.Instance.n and k = inst.Instance.k in
  let a = Assignment.create inst in
  (* a ref so a checkpoint restore can swap in a reconstructed forest *)
  let uf_ref = ref (Rbgp_util.Union_find.create n) in
  (* collocate the whole component of [root] onto [target_server], swapping
     each mover with a process of the target server outside the component.
     Balance is preserved, and because the component has at most k members
     the target always holds enough outsiders to swap with. *)
  let collocate root target_server =
    let movers =
      List.filter
        (fun p -> Assignment.server_of a p <> target_server)
        (Rbgp_util.Union_find.members !uf_ref root)
    in
    let outsiders = ref [] in
    for p = n - 1 downto 0 do
      if
        Assignment.server_of a p = target_server
        && Rbgp_util.Union_find.find !uf_ref p <> root
      then outsiders := p :: !outsiders
    done;
    List.iter
      (fun p ->
        match !outsiders with
        | q :: rest ->
            outsiders := rest;
            let sp = Assignment.server_of a p in
            Assignment.set a q sp;
            Assignment.set a p target_server
        | [] ->
            (* no outsider left to swap with: only possible when the target
               has spare capacity, but guard anyway *)
            if Assignment.load a target_server < k then
              Assignment.set a p target_server)
      movers
  in
  (* the server currently hosting the most members of [root]'s component *)
  let majority_server root =
    let counts = Array.make inst.Instance.ell 0 in
    List.iter
      (fun p ->
        let s = Assignment.server_of a p in
        counts.(s) <- counts.(s) + 1)
      (Rbgp_util.Union_find.members !uf_ref root);
    let best = ref 0 in
    Array.iteri (fun s c -> if c > counts.(!best) then best := s) counts;
    !best
  in
  let serve e =
    let u = e and v = (e + 1) mod n in
    let su = Assignment.server_of a u and sv = Assignment.server_of a v in
    let total =
      Rbgp_util.Union_find.size !uf_ref u + Rbgp_util.Union_find.size !uf_ref v
    in
    let joined = Rbgp_util.Union_find.same !uf_ref u v in
    if (not joined) && total <= k then begin
      (* merge; if the endpoints straddle servers, collocate on the larger
         side's server *)
      let size_u = Rbgp_util.Union_find.size !uf_ref u in
      let target_server = if size_u >= total - size_u then su else sv in
      let root = Rbgp_util.Union_find.union !uf_ref u v in
      if su <> sv then collocate root target_server
    end
    else if joined && su <> sv then
      (* a previously learned component was scattered by someone else's
         collocation swaps: bring it back together on its majority server *)
      let root = Rbgp_util.Union_find.find !uf_ref u in
      collocate root (majority_server root)
    (* components that would exceed k are never merged: the learning
       variant's guarantee does not cover them, so the request is paid *)
  in
  let name = "component-learning" in
  Online.with_state
    ~snapshot:(fun () ->
      snapshot_of name (fun buf ->
          Binc.add_int_array buf (Assignment.to_array a);
          (* future behaviour depends only on the partition (membership
             and sizes), not on which element the forest happens to use
             as a root, so canonicalise each component to its minimum
             member: a run that restored from this snapshot then
             re-snapshots must produce identical bytes *)
          let roots = Array.init n (fun p -> Rbgp_util.Union_find.find !uf_ref p) in
          let canon = Array.make n max_int in
          Array.iteri
            (fun p r -> if p < canon.(r) then canon.(r) <- p)
            roots;
          Binc.add_int_array buf (Array.map (fun r -> canon.(r)) roots)))
    ~restore:(fun s ->
      let r = open_snapshot name s in
      Assignment.restore_array a (Binc.read_int_array r);
      let reps = Binc.read_int_array r in
      if Array.length reps <> n then
        invalid_arg (name ^ ": snapshot partition length mismatch");
      let uf = Rbgp_util.Union_find.create n in
      Array.iteri (fun p rep -> ignore (Rbgp_util.Union_find.union uf p rep)) reps;
      uf_ref := uf)
  @@ Online.make ~name ~augmentation:1.0
    ~assignment:(fun () -> a)
    ~serve

let static_oracle (inst : Instance.t) ~trace =
  let sol = Rbgp_offline.Static_opt.segmented inst trace in
  let a = Assignment.create inst in
  let moved = ref false in
  let serve _ =
    if not !moved then begin
      moved := true;
      Array.iteri
        (fun p s -> Assignment.set a p s)
        sol.Rbgp_offline.Static_opt.assignment
    end
  in
  let name = "static-oracle" in
  Online.with_state
    ~snapshot:(fun () ->
      snapshot_of name (fun buf ->
          Binc.add_int_array buf (Assignment.to_array a);
          Binc.add_varint buf (if !moved then 1 else 0)))
    ~restore:(fun s ->
      let r = open_snapshot name s in
      Assignment.restore_array a (Binc.read_int_array r);
      moved := Binc.read_varint r = 1)
  @@ Online.make ~name ~augmentation:1.0
    ~assignment:(fun () -> a)
    ~serve
