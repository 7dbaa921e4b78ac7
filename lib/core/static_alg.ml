module Instance = Rbgp_ring.Instance
module Assignment = Rbgp_ring.Assignment
module Binc = Rbgp_util.Binc

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

(* --- O(state) snapshot ------------------------------------------------ *)

let snap_version = 1

let snapshot t =
  let buf = Buffer.create 1024 in
  Binc.add_varint buf snap_version;
  Slicing.save buf t.slicing;
  Clustering.save buf t.clustering;
  Scheduling.save buf t.scheduling;
  Buffer.contents buf

(* The assignment is slice -> cluster -> server: rebuilt, not stored. *)
let restore t s =
  let r = Binc.reader s in
  let v = Binc.read_varint r in
  if v <> snap_version then
    invalid_arg
      (Printf.sprintf "Static_alg.restore: unsupported snapshot version %d" v);
  Slicing.load r t.slicing;
  Clustering.load r t.clustering;
  Scheduling.load r t.scheduling;
  if not (Binc.at_end r) then
    invalid_arg "Static_alg.restore: trailing bytes after the snapshot";
  (match Clustering.check_consistency t.clustering with
  | Ok () -> ()
  | Error msg ->
      invalid_arg ("Static_alg.restore: inconsistent clustering: " ^ msg));
  sync_assignment t

let online t =
  Rbgp_ring.Online.with_state
    ~snapshot:(fun () -> snapshot t)
    ~restore:(fun s -> restore t s)
  @@ Rbgp_ring.Online.make ~name:"onl-static" ~augmentation:(augmentation t)
       ~assignment:(fun () -> t.assignment)
       ~serve:(fun e -> serve t e)

let slicing t = t.slicing
let clustering t = t.clustering
let rebalance_cost t = Scheduling.rebalance_cost t.scheduling
let delta_bar t = t.delta_bar
let eps' t = t.eps'
