module Instance = Rbgp_ring.Instance
module Assignment = Rbgp_ring.Assignment

type t = {
  inst : Instance.t;
  eps' : float;
  delta_bar : float;
  slicing : Slicing.t;
  clustering : Clustering.t;
  scheduling : Scheduling.t;
  assignment : Assignment.t;
  scratch : int array;
}

let default_delta_bar ~eps' = Float.max (2.0 /. (2.0 +. eps')) (14.0 /. 15.0)

let create ?delta_bar ~epsilon (inst : Instance.t) rng =
  if epsilon <= 0.0 then invalid_arg "Static_alg.create: epsilon must be positive";
  let eps' = Float.min (epsilon /. 2.0) 1.0 in
  let delta_bar =
    match delta_bar with Some d -> d | None -> default_delta_bar ~eps'
  in
  {
    inst;
    eps';
    delta_bar;
    slicing = Slicing.create ~delta_bar inst rng;
    clustering = Clustering.create inst;
    scheduling = Scheduling.create inst ~eps';
    assignment = Assignment.create inst;
    scratch = Array.make inst.Instance.n 0;
  }

let sync_assignment t =
  Clustering.assignment_into t.clustering t.scratch;
  for p = 0 to t.inst.Instance.n - 1 do
    Assignment.set t.assignment p t.scratch.(p)
  done

let serve t e =
  let events = Slicing.serve t.slicing e in
  List.iter (Clustering.apply_event t.clustering) events;
  Scheduling.rebalance t.scheduling (Clustering.clusters t.clustering);
  sync_assignment t

let augmentation t =
  let d_singleton = 3.0 +. (2.0 *. (1.0 -. t.delta_bar) /. t.delta_bar) in
  Float.max 2.0 d_singleton +. t.eps' +. 1e-6

let online t =
  Rbgp_ring.Online.make ~name:"onl-static" ~augmentation:(augmentation t)
    ~assignment:(fun () -> t.assignment)
    ~serve:(fun e -> serve t e)

let slicing t = t.slicing
let clustering t = t.clustering
let rebalance_cost t = Scheduling.rebalance_cost t.scheduling
let delta_bar t = t.delta_bar
let eps' t = t.eps'
