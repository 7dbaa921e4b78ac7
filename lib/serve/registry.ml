module Rng = Rbgp_util.Rng

type spec = {
  name : string;
  build : epsilon:float -> seed:int -> Rbgp_ring.Instance.t -> Rbgp_ring.Online.t;
}

let dynamic_with solver name =
  {
    name;
    build =
      (fun ~epsilon ~seed inst ->
        Rbgp_core.Dynamic_alg.online
          (Rbgp_core.Dynamic_alg.create ~mts:solver ~epsilon inst
             (Rng.create seed)));
  }

let all =
  [
    dynamic_with Rbgp_mts.Smin_mw.solver "onl-dynamic";
    {
      name = "onl-static";
      build =
        (fun ~epsilon ~seed inst ->
          Rbgp_core.Static_alg.online
            (Rbgp_core.Static_alg.create ~epsilon inst (Rng.create seed)));
    };
    dynamic_with Rbgp_mts.Work_function.solver "dyn/wfa";
    dynamic_with Rbgp_mts.Hst_mts.solver "dyn/hst-mw";
    dynamic_with Rbgp_mts.Marking.solver "dyn/marking";
    {
      name = "never-move";
      build = (fun ~epsilon:_ ~seed:_ inst -> Rbgp_baselines.Baselines.never_move inst);
    };
    {
      name = "greedy-colocate";
      build =
        (fun ~epsilon:_ ~seed:_ inst ->
          Rbgp_baselines.Baselines.greedy_colocate inst);
    };
    {
      name = "counter-threshold";
      build =
        (fun ~epsilon ~seed:_ inst ->
          Rbgp_baselines.Baselines.counter_threshold ~epsilon inst);
    };
    {
      name = "component-learning";
      build =
        (fun ~epsilon:_ ~seed:_ inst ->
          Rbgp_baselines.Baselines.component_learning inst);
    };
  ]

let names = List.map (fun s -> s.name) all

let find name =
  match List.find_opt (fun s -> String.equal s.name name) all with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.find: unknown algorithm %S (known: %s)" name
           (String.concat ", " names))

let build_for_trace name ~epsilon ~seed ~trace inst =
  match name with
  | "static-oracle" -> Rbgp_baselines.Baselines.static_oracle inst ~trace
  | name -> (find name).build ~epsilon ~seed inst
