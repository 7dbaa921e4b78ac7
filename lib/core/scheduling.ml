module Instance = Rbgp_ring.Instance

let log_src =
  Logs.Src.create "rbgp.scheduling" ~doc:"Scheduling procedure rebalances"

module Log = (val Logs.src_log log_src)

type t = { inst : Instance.t; eps' : float; mutable cost : int }

let create (inst : Instance.t) ~eps' =
  if eps' <= 0.0 then invalid_arg "Scheduling.create: eps' must be positive";
  { inst; eps'; cost = 0 }

let loads t clusters =
  let l = Array.make t.inst.Instance.ell 0 in
  List.iter
    (fun (c : Clustering.cluster) ->
      l.(c.Clustering.server) <- l.(c.Clustering.server) + c.Clustering.size)
    clusters;
  l

let dk t ~x_max =
  let k = float_of_int t.inst.Instance.k in
  Float.max 2.0 (float_of_int x_max /. k) *. k

let threshold t ~x_max = dk t ~x_max +. (t.eps' *. float_of_int t.inst.Instance.k)

let move_cluster t loads (c : Clustering.cluster) target =
  Log.debug (fun m ->
      m "moving cluster %d (size %d) from server %d to %d" c.Clustering.cid
        c.Clustering.size c.Clustering.server target);
  loads.(c.Clustering.server) <- loads.(c.Clustering.server) - c.Clustering.size;
  loads.(target) <- loads.(target) + c.Clustering.size;
  t.cost <- t.cost + c.Clustering.size;
  c.Clustering.server <- target

let find_server_with_load_at_most loads ~bound ~excluding =
  let found = ref (-1) in
  Array.iteri
    (fun s load ->
      if !found < 0 && load <= bound && not (List.mem s excluding) then
        found := s)
    loads;
  !found

let x_max clusters =
  List.fold_left
    (fun acc (c : Clustering.cluster) -> Stdlib.max acc c.Clustering.size)
    0 clusters

let overloaded t clusters =
  let trigger = threshold t ~x_max:(x_max clusters) in
  Array.exists (fun load -> float_of_int load > trigger) (loads t clusters)

let rebalance t clusters =
  let k = t.inst.Instance.k in
  let loads = loads t clusters in
  let x_max = x_max clusters in
  let trigger = threshold t ~x_max in
  let target_load = dk t ~x_max in
  let continue = ref true in
  while !continue do
    (* find an overloaded server *)
    let over = ref (-1) in
    Array.iteri
      (fun s load -> if !over < 0 && float_of_int load > trigger then over := s)
      loads;
    if !over < 0 then continue := false
    else begin
      let s = !over in
      while float_of_int loads.(s) > target_load do
        let smallest = ref None in
        List.iter
          (fun (c : Clustering.cluster) ->
            if c.Clustering.server = s && c.Clustering.size > 0 then
              match !smallest with
              | None -> smallest := Some c
              | Some b ->
                  if c.Clustering.size < b.Clustering.size then
                    smallest := Some c)
          clusters;
        match !smallest with
        | None -> failwith "Scheduling.rebalance: overloaded server without clusters"
        | Some c ->
            let s' = find_server_with_load_at_most loads ~bound:k ~excluding:[ s ] in
            if s' < 0 then
              failwith "Scheduling.rebalance: no server with load <= k";
            if c.Clustering.size <= k then move_cluster t loads c s'
            else begin
              (* evacuate s' to a third lightly loaded server first *)
              let s'' =
                find_server_with_load_at_most loads ~bound:k
                  ~excluding:[ s; s' ]
              in
              if s'' < 0 then
                failwith "Scheduling.rebalance: no third server for evacuation";
              List.iter
                (fun (d : Clustering.cluster) ->
                  if d.Clustering.server = s' && d.Clustering.size > 0 then
                    move_cluster t loads d s'')
                clusters;
              move_cluster t loads c s'
            end
      done
    end
  done

let rebalance_cost t = t.cost

let save buf t = Rbgp_util.Binc.add_varint buf t.cost

let load r t =
  let cost = Rbgp_util.Binc.read_varint r in
  if cost < 0 then invalid_arg "Scheduling.load: negative cost";
  t.cost <- cost
