module Rng = Rbgp_util.Rng
module Tbl = Rbgp_util.Tbl
module Stats = Rbgp_util.Stats
module Cost = Rbgp_ring.Cost
module Trace = Rbgp_ring.Trace
module Instance = Rbgp_ring.Instance
module Simulator = Rbgp_ring.Simulator
module Registry = Rbgp_serve.Registry
module W = Rbgp_workloads.Workloads

let header id title =
  Printf.printf "\n=== %s: %s ===\n" (String.uppercase_ascii id) title

(* a zero-cost comparator against a positive online cost is an explicit
   "inf" in the tables (rendered by Tbl.cell_ratio), never a
   locale-dependent Printf artifact; 0/0 stays nan
   ("no signal") *)
let ratio a b =
  if b > 0.0 then a /. b else if a > 0.0 then Float.infinity else Float.nan

let fi = float_of_int

let trace_array trace steps =
  match trace with
  | Trace.Fixed a -> Array.sub a 0 steps
  | Trace.Adaptive _ -> invalid_arg "trace_array: adaptive trace"

(* cumulative cost (comm + mig) after every step of one run *)
let cumulative_totals inst alg tarr ~steps =
  let totals = Array.make steps 0 in
  let on_step t c = totals.(t) <- Cost.total c in
  ignore (Simulator.run ~on_step inst alg (Trace.fixed tarr) ~steps);
  totals

(* Run independent experiment cells across domains, results in input
   order.  Every cell is self-contained: instances, traces and rng streams
   are built before the fan-out and every in-cell rng comes from an
   explicit integer seed, so with any domain count the result list is the
   sequential one byte for byte.  This is the harness's one pool call
   site. *)
let fan_out cells = Rbgp_util.Pool.map_list (fun f -> f ()) cells

(* The paper's two algorithms and the baselines, in table column order;
   every name builds through [Registry.build_for_trace] *)
let head_to_head =
  [ "onl-dynamic"; "onl-static"; "never-move"; "greedy-colocate";
    "counter-threshold"; "static-oracle"; "component-learning" ]

let build name ~epsilon ~seed inst =
  (Registry.find name).Registry.build ~epsilon ~seed inst

(* split the flat result list of a fan-out back into rows of [width] cells *)
let rec take width l =
  if width = 0 then ([], l)
  else
    match l with
    | x :: tl ->
        let row, rest = take (width - 1) tl in
        (x :: row, rest)
    | [] -> invalid_arg "Report.take: not enough cells"

(* ------------------------------------------------------------------ *)
(* E1 / E6: load bounds                                                *)
(* ------------------------------------------------------------------ *)

let load_experiment ~id ~title ~quick ~seed ~make_alg ~bound_of =
  header id title;
  let sizes = if quick then [ (64, 4) ] else [ (64, 4); (256, 8); (1024, 16) ] in
  let steps = if quick then 2_000 else 10_000 in
  let tbl =
    Tbl.create ~headers:[ "n"; "ell"; "k"; "workload"; "max load"; "bound"; "ok" ]
  in
  List.iter
    (fun (n, ell) ->
      let inst = Instance.blocks ~n ~ell in
      let k = inst.Instance.k in
      let rng = Rng.create seed in
      List.iter
        (fun (wname, trace) ->
          let alg = make_alg inst (Rng.split rng) in
          let bound = bound_of alg *. fi k in
          let r = Simulator.run inst alg trace ~steps in
          Tbl.add_row tbl
            [
              Tbl.cell_i n;
              Tbl.cell_i ell;
              Tbl.cell_i k;
              wname;
              Tbl.cell_i r.Simulator.max_load;
              Tbl.cell_f bound;
              (if fi r.Simulator.max_load <= bound +. 1e-6 then "yes" else "NO");
            ])
        (W.all_fixed ~n ~steps (Rng.split rng)))
    sizes;
  Tbl.print tbl

let e1_dynamic_load ?(quick = false) ?(seed = 7) () =
  load_experiment ~id:"e1"
    ~title:"dynamic algorithm load bound (Lemma 3.1), epsilon = 1/2" ~quick
    ~seed
    ~make_alg:(fun inst rng ->
      Rbgp_core.Dynamic_alg.online
        (Rbgp_core.Dynamic_alg.create ~epsilon:0.5 inst rng))
    ~bound_of:(fun alg -> alg.Rbgp_ring.Online.augmentation)

let e6_static_load ?(quick = false) ?(seed = 11) () =
  load_experiment ~id:"e6"
    ~title:"static algorithm load bound (Lemma 4.13), epsilon = 1/2" ~quick
    ~seed
    ~make_alg:(fun inst rng ->
      Rbgp_core.Static_alg.online
        (Rbgp_core.Static_alg.create ~epsilon:0.5 inst rng))
    ~bound_of:(fun alg -> alg.Rbgp_ring.Online.augmentation)

(* ------------------------------------------------------------------ *)
(* E2: ONL_R vs OPT_R                                                  *)
(* ------------------------------------------------------------------ *)

let e2_interval_ratio ?(quick = false) ?(seed = 13) () =
  header "e2" "interval cost of ONL_R vs optimal interval strategy OPT_R (Lemma 3.3)";
  let ks = if quick then [ 8; 16 ] else [ 8; 16; 32; 64; 128 ] in
  let epsilon = 0.5 in
  let solver_seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let tbl =
    Tbl.create
      ~headers:
        [ "k"; "n"; "workload"; "ONL_R (mean)"; "sd"; "OPT_R"; "ratio";
          "ratio/log2 k" ]
  in
  (* cell construction is sequential (workload rng streams are derived in a
     fixed order); the expensive run + exact OPT_R per cell fans out *)
  let cells =
    List.concat_map
      (fun k ->
        let ell = 8 in
        let n = ell * k in
        let inst = Instance.blocks ~n ~ell in
        let steps = if quick then 2_000 else 50 * n in
        let rng = Rng.create seed in
        List.map
          (fun (wname, trace) ->
            let tarr = trace_array trace steps in
            ignore (Rng.split rng);
            ( (k, n, wname),
              fun () ->
                let costs =
                  Array.of_list
                    (List.map
                       (fun s ->
                         let alg =
                           Rbgp_core.Dynamic_alg.create ~shift:0 ~epsilon inst
                             (Rng.create (seed + (1000 * s)))
                         in
                         let (_ : Simulator.result) =
                           Simulator.run inst
                             (Rbgp_core.Dynamic_alg.online alg)
                             (Trace.fixed tarr) ~steps
                         in
                         Rbgp_core.Dynamic_alg.interval_hit_cost alg
                         +. Rbgp_core.Dynamic_alg.interval_move_cost alg)
                       solver_seeds)
                in
                let mean = Stats.mean costs and sd = Stats.stddev costs in
                let opt_r =
                  Rbgp_offline.Lower_bound.interval_opt inst tarr ~shift:0
                    ~epsilon
                in
                (mean, sd, opt_r) ))
          [
            ("uniform", W.uniform ~n ~steps (Rng.split rng));
            ("zipf", W.zipf ~n ~steps (Rng.split rng));
            ("rotating", W.rotating ~n ~steps (Rng.split rng));
          ])
      ks
  in
  let results = fan_out (List.map snd cells) in
  let ratios = ref [] in
  List.iter2
    (fun ((k, n, wname), _) (mean, sd, opt_r) ->
      let r = ratio mean opt_r in
      if wname = "uniform" then ratios := (fi k, r) :: !ratios;
      Tbl.add_row tbl
        [
          Tbl.cell_i k;
          Tbl.cell_i n;
          wname;
          Printf.sprintf "%.0f" mean;
          Printf.sprintf "%.0f" sd;
          Tbl.cell_f opt_r;
          Tbl.cell_ratio r;
          Tbl.cell_ratio (r /. (log (fi k) /. log 2.0));
        ])
    cells results;
  Tbl.print tbl;
  (match !ratios with
  | _ :: _ :: _ ->
      let xs = Array.of_list (List.rev_map fst !ratios) in
      let ys = Array.of_list (List.rev_map snd !ratios) in
      let fit = Stats.loglog_fit xs ys in
      Printf.printf
        "growth of uniform-trace ratio: k^%.2f (r2=%.2f); polylog predicts \
         exponent near 0, linear lower bounds would give 1.\n"
        fit.Stats.slope fit.Stats.r2
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* E3: dynamic model, exact + at scale                                 *)
(* ------------------------------------------------------------------ *)

let e3_dynamic_ratio ?(quick = false) ?(seed = 17) () =
  header "e3" "dynamic algorithm vs dynamic OPT (Theorem 2.1)";
  (* exact part *)
  let tbl =
    Tbl.create
      ~headers:[ "instance"; "workload"; "alg"; "cost"; "OPT"; "ratio" ]
  in
  (* instances chosen so 2(1+eps)k < n: the dynamic algorithm's augmented
     capacity cannot swallow the whole ring, keeping the comparison
     meaningful *)
  let tiny_steps = if quick then 300 else 800 in
  let tiny_instances = if quick then [ (6, 3) ] else [ (6, 3); (8, 4) ] in
  (* the state-space DP is built once per instance (through the process-wide
     shared cache) and shared read-only by the parallel cells
     (Dynamic_opt.solve allocates its own scratch) *)
  let tiny_cells =
    List.concat_map
      (fun (n, ell) ->
        let inst = Instance.blocks ~n ~ell in
        let dp = Rbgp_offline.Dynamic_opt.shared inst () in
        let rng = Rng.create seed in
        List.map
          (fun (wname, trace) ->
            let tarr = trace_array trace tiny_steps in
            ( (n, ell, wname),
              fun () ->
                let opt = Rbgp_offline.Dynamic_opt.solve dp tarr in
                let runs =
                  List.map
                    (fun name ->
                      let alg =
                        Registry.build_for_trace name ~epsilon:0.5
                          ~seed:(seed + 1) ~trace:tarr inst
                      in
                      let r =
                        Simulator.run inst alg (Trace.fixed tarr)
                          ~steps:tiny_steps
                      in
                      (name, Cost.total r.Simulator.cost))
                    head_to_head
                in
                (Cost.total opt, runs) ))
          [
            ("uniform", W.uniform ~n ~steps:tiny_steps (Rng.split rng));
            ( "rotating",
              W.rotating ~n ~steps:tiny_steps ~arc:2 ~period:8 (Rng.split rng)
            );
          ])
      tiny_instances
  in
  List.iter2
    (fun ((n, ell, wname), _) (opt_total, runs) ->
      List.iter
        (fun (alg_name, cost_total) ->
          Tbl.add_row tbl
            [
              Printf.sprintf "n=%d ell=%d" n ell;
              wname;
              alg_name;
              Tbl.cell_i cost_total;
              Tbl.cell_i opt_total;
              Tbl.cell_ratio (ratio (fi cost_total) (fi opt_total));
            ])
        runs)
    tiny_cells
    (fan_out (List.map snd tiny_cells));
  Tbl.print tbl;
  (* at scale, vs certified lower bound *)
  Printf.printf
    "\nAt scale, dynamic OPT is bracketed: the certified windowed lower \
     bound from below, a feasible window-wise static schedule from above \
     (cost/LB overestimates the true ratio, cost/UB underestimates it):\n";
  let tbl2 =
    Tbl.create
      ~headers:
        [ "n"; "k"; "workload"; "alg"; "cost"; "dyn LB"; "dyn UB";
          "cost/LB"; "cost/UB" ]
  in
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 5_000 else 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create (seed + 2) in
  let scale_cells =
    List.map
      (fun (wname, trace) ->
        let tarr = trace_array trace steps in
        ( wname,
          fun () ->
            let lb = Rbgp_offline.Lower_bound.dynamic_lb inst tarr () in
            let _, ub_cost = Rbgp_offline.Dynamic_heuristic.best inst tarr () in
            let runs =
              List.map
                (fun name ->
                  let alg =
                    Registry.build_for_trace name ~epsilon:0.5
                      ~seed:(seed + 3) ~trace:tarr inst
                  in
                  let r = Simulator.run inst alg (Trace.fixed tarr) ~steps in
                  (name, Cost.total r.Simulator.cost))
                head_to_head
            in
            (lb, Cost.total ub_cost, runs) ))
      [
        ("uniform", W.uniform ~n ~steps (Rng.split rng));
        ("rotating", W.rotating ~n ~steps (Rng.split rng));
        ("hotspot", W.hotspot ~n ~steps (Rng.split rng));
      ]
  in
  List.iter2
    (fun (wname, _) (lb, ub, runs) ->
      List.iter
        (fun (alg_name, cost_total) ->
          Tbl.add_row tbl2
            [
              Tbl.cell_i n;
              Tbl.cell_i inst.Instance.k;
              wname;
              alg_name;
              Tbl.cell_i cost_total;
              Tbl.cell_i lb;
              Tbl.cell_i ub;
              Tbl.cell_ratio (ratio (fi cost_total) (fi lb));
              Tbl.cell_ratio (ratio (fi cost_total) (fi ub));
            ])
        runs)
    scale_cells
    (fan_out (List.map snd scale_cells));
  Tbl.print tbl2;
  (* scaling: does the ratio against the feasible offline schedule stay
     bounded as k grows?  (Theorem 2.1 predicts polylog growth; against
     the UB the measured ratio *underestimates* the true one.) *)
  Printf.printf "\nratio scaling on drifting demand (UB = feasible offline schedule):\n";
  let tbl3 =
    Tbl.create
      ~headers:[ "k"; "n"; "steps"; "onl-dynamic"; "dyn UB"; "cost/UB" ]
  in
  let ks = if quick then [ 8; 16 ] else [ 8; 16; 32; 64 ] in
  (* each k is fully self-contained (a fresh rng stream per k), so the cell
     body can build its own trace *)
  let k_cells =
    List.map
      (fun k ->
        let ell = 8 in
        let n = ell * k in
        let steps = 50 * n in
        ( (k, n, steps),
          fun () ->
            let inst = Instance.blocks ~n ~ell in
            let rng = Rng.create (seed + 4) in
            let tarr =
              trace_array (W.rotating ~n ~steps (Rng.split rng)) steps
            in
            let alg = build "onl-dynamic" ~epsilon:0.5 ~seed:(seed + 5) inst in
            let r = Simulator.run inst alg (Trace.fixed tarr) ~steps in
            let _, ub_cost = Rbgp_offline.Dynamic_heuristic.best inst tarr () in
            (Cost.total r.Simulator.cost, Cost.total ub_cost) ))
      ks
  in
  List.iter2
    (fun ((k, n, steps), _) (cost_total, ub) ->
      Tbl.add_row tbl3
        [
          Tbl.cell_i k;
          Tbl.cell_i n;
          Tbl.cell_i steps;
          Tbl.cell_i cost_total;
          Tbl.cell_i ub;
          Tbl.cell_ratio (ratio (fi cost_total) (fi ub));
        ])
    k_cells
    (fan_out (List.map snd k_cells));
  Tbl.print tbl3

(* ------------------------------------------------------------------ *)
(* E4: the Omega(k) separation on the hitting game                     *)
(* ------------------------------------------------------------------ *)

let e4_deterministic_lower_bound ?(quick = false) ?(seed = 19) () =
  header "e4"
    "chase adversary on the hitting game: deterministic Omega(k) vs \
     randomized polylog (Lemma 4.1)";
  Printf.printf
    "The adversary chases a deterministic player (requesting its realized \
     edge); the resulting trace is then replayed obliviously against the \
     randomized interval-growing player, which is the setting of the \
     paper's guarantees.  The last rows run the adversary adaptively \
     against interval growing itself: adaptive adversaries defeat \
     randomization too, as the theory predicts.\n";
  let ks = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128; 256 ] in
  let tbl =
    Tbl.create
      ~headers:
        [ "k"; "steps"; "trace"; "player"; "cost"; "static OPT"; "ratio";
          "ratio/k"; "ratio/log2 k" ]
  in
  let row ~k ~steps ~trace_name ~player_name cost opt =
    let r = ratio cost opt in
    Tbl.add_row tbl
      [
        Tbl.cell_i k;
        Tbl.cell_i steps;
        trace_name;
        player_name;
        Tbl.cell_f cost;
        Tbl.cell_f opt;
        Tbl.cell_ratio r;
        Printf.sprintf "%.3f" (r /. fi k);
        Tbl.cell_ratio (r /. (log (fi k) /. log 2.0));
      ]
  in
  List.iter
    (fun k ->
      let steps = Stdlib.min (if quick then 10_000 else 60_000) (4 * k * k) in
      let ig_seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
      let ig_cost requests =
        Stats.mean
          (Array.of_list
             (List.map
                (fun s ->
                  let ig =
                    Rbgp_hitting.Interval_growing.(
                      player (line ~k (Rng.create (seed + (1000 * s)))))
                  in
                  Rbgp_hitting.Game.run ig requests;
                  Rbgp_hitting.Game.total_cost ig)
                ig_seeds))
      in
      (* chase the deterministic dodger, then replay its trace obliviously *)
      let dodger = Rbgp_hitting.Game.greedy_dodge ~k () in
      let chase_trace =
        Rbgp_hitting.Game.run_adaptive dodger ~steps ~next:(fun _ pos ->
            Rbgp_hitting.Adversary.chase 0 pos)
      in
      let opt = Rbgp_hitting.Static_opt.static ~k chase_trace in
      row ~k ~steps ~trace_name:"chase-dodge" ~player_name:"greedy-dodge"
        (Rbgp_hitting.Game.total_cost dodger)
        opt;
      row ~k ~steps ~trace_name:"chase-dodge" ~player_name:"interval-growing"
        (ig_cost chase_trace) opt;
      (* and adaptively against the randomized player itself *)
      let player =
        Rbgp_hitting.Interval_growing.(
          player (line ~k (Rng.create (seed + k))))
      in
      let adaptive_trace =
        Rbgp_hitting.Game.run_adaptive player ~steps ~next:(fun _ pos ->
            Rbgp_hitting.Adversary.chase 0 pos)
      in
      row ~k ~steps ~trace_name:"chase-adaptive" ~player_name:"interval-growing"
        (Rbgp_hitting.Game.total_cost player)
        (Rbgp_hitting.Static_opt.static ~k adaptive_trace))
    ks;
  Tbl.print tbl;
  Printf.printf
    "expected shape: on the oblivious chase-dodge trace, greedy-dodge's \
     ratio/k stays roughly constant (the Omega(k) lower bound) while \
     interval-growing's ratio/log2 k stays roughly constant.\n"

(* ------------------------------------------------------------------ *)
(* E5: interval growing vs static OPT                                  *)
(* ------------------------------------------------------------------ *)

let e5_hitting_ratio ?(quick = false) ?(seed = 23) () =
  header "e5" "interval growing vs hitting-game static OPT (Corollary 4.4)";
  let ks = if quick then [ 16; 64 ] else [ 16; 64; 256; 1024 ] in
  let tbl =
    Tbl.create
      ~headers:[ "k"; "workload"; "cost"; "static OPT"; "ratio"; "ratio/log2 k" ]
  in
  let cells =
    List.concat_map
      (fun k ->
        let steps = if quick then 5_000 else 40_000 in
        let rng = Rng.create seed in
        let start = Rbgp_hitting.Game.start_edge ~k in
        List.map
          (fun (wname, requests) ->
            ( (k, wname),
              fun () ->
                let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
                let mean =
                  Stats.mean
                    (Array.of_list
                       (List.map
                          (fun s ->
                            let ig =
                              Rbgp_hitting.Interval_growing.(
                                player (line ~k (Rng.create (seed + s))))
                            in
                            Rbgp_hitting.Game.run ig requests;
                            Rbgp_hitting.Game.total_cost ig)
                          seeds))
                in
                let opt = Rbgp_hitting.Static_opt.static ~k requests in
                (mean, opt) ))
          [
            ( "hammer-start",
              Rbgp_hitting.Adversary.hammer ~k ~edge:start ~steps );
            ( "uniform",
              Rbgp_hitting.Adversary.uniform ~k ~steps (Rng.split rng) );
            ("bait-switch", Rbgp_hitting.Adversary.bait_and_switch ~k ~steps);
          ])
      ks
  in
  List.iter2
    (fun ((k, wname), _) (mean, opt) ->
      let r = ratio mean opt in
      Tbl.add_row tbl
        [
          Tbl.cell_i k;
          wname;
          Tbl.cell_f mean;
          Tbl.cell_f opt;
          Tbl.cell_ratio r;
          Tbl.cell_ratio (r /. (log (fi k) /. log 2.0));
        ])
    cells
    (fan_out (List.map snd cells));
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E7: static algorithm vs static OPT                                  *)
(* ------------------------------------------------------------------ *)

let e7_static_ratio ?(quick = false) ?(seed = 29) () =
  header "e7" "static algorithm vs segmented static OPT (Theorem 2.2)";
  let ks = if quick then [ 8; 16 ] else [ 8; 16; 32; 64 ] in
  let epsilon = 1.0 in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let tbl =
    Tbl.create
      ~headers:
        [ "k"; "n"; "workload"; "onl-static (mean)"; "sd"; "static OPT";
          "static LB"; "ratio" ]
  in
  let cells =
    List.concat_map
      (fun k ->
        let ell = 8 in
        let n = ell * k in
        let inst = Instance.blocks ~n ~ell in
        let steps = if quick then 2_000 else 40 * n in
        let rng = Rng.create seed in
        List.map
          (fun (wname, trace) ->
            let tarr = trace_array trace steps in
            ignore (Rng.split rng);
            ( (k, n, wname),
              fun () ->
                let costs =
                  Array.of_list
                    (List.map
                       (fun s ->
                         let alg =
                           build "onl-static" ~epsilon ~seed:(seed + (1000 * s))
                             inst
                         in
                         let r =
                           Simulator.run inst alg (Trace.fixed tarr) ~steps
                         in
                         fi (Cost.total r.Simulator.cost))
                       seeds)
                in
                let mean = Stats.mean costs and sd = Stats.stddev costs in
                let opt = Rbgp_offline.Static_opt.segmented inst tarr in
                let lb =
                  Rbgp_offline.Static_opt.crossing_lower_bound inst tarr
                in
                (mean, sd, opt.Rbgp_offline.Static_opt.total, lb) ))
          [
            ("uniform", W.uniform ~n ~steps (Rng.split rng));
            ("hotspot", W.hotspot ~n ~steps (Rng.split rng));
            ("piecewise", W.piecewise_static ~n ~steps (Rng.split rng));
          ])
      ks
  in
  List.iter2
    (fun ((k, n, wname), _) (mean, sd, opt_total, lb) ->
      Tbl.add_row tbl
        [
          Tbl.cell_i k;
          Tbl.cell_i n;
          wname;
          Printf.sprintf "%.0f" mean;
          Printf.sprintf "%.0f" sd;
          Tbl.cell_i opt_total;
          Tbl.cell_i lb;
          Tbl.cell_ratio (ratio mean (fi opt_total));
        ])
    cells
    (fan_out (List.map snd cells));
  Tbl.print tbl;
  (* strictness: short, cheap sequences must still give bounded ratios *)
  Printf.printf "\nstrictness check (short cheap sequences, no additive term):\n";
  let tbl2 = Tbl.create ~headers:[ "steps"; "onl-static"; "static OPT"; "ratio" ] in
  let inst = Instance.blocks ~n:64 ~ell:4 in
  List.iter
    (fun steps ->
      (* all requests inside one server's block: OPT pays nothing *)
      let tarr = Array.init steps (fun i -> 1 + (i mod 8)) in
      let alg = build "onl-static" ~epsilon ~seed:(seed + steps) inst in
      let r = Simulator.run inst alg (Trace.fixed tarr) ~steps in
      let opt = Rbgp_offline.Static_opt.segmented inst tarr in
      Tbl.add_row tbl2
        [
          Tbl.cell_i steps;
          Tbl.cell_i (Cost.total r.Simulator.cost);
          Tbl.cell_i opt.Rbgp_offline.Static_opt.total;
          (let c = Cost.total r.Simulator.cost in
           if opt.Rbgp_offline.Static_opt.total = 0 then
             if c = 0 then "0/0 (strict)" else Printf.sprintf "%d/0 VIOLATION" c
           else Tbl.cell_ratio (ratio (fi c) (fi opt.Rbgp_offline.Static_opt.total)));
        ])
    [ 10; 100; 1000 ];
  Tbl.print tbl2

(* ------------------------------------------------------------------ *)
(* E8: head-to-head                                                    *)
(* ------------------------------------------------------------------ *)

let e8_head_to_head ?(quick = false) ?(seed = 31) () =
  header "e8" "all algorithms x all workloads";
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 5_000 else 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let epsilon = 0.5 in
  let rng = Rng.create seed in
  let tbl = Tbl.create ~headers:("workload" :: head_to_head) in
  let oblivious = W.all_fixed ~n ~steps (Rng.split rng) in
  (* one cell per (workload x algorithm); the flat fan-out result is split
     back into table rows of |head_to_head| cells *)
  let cells =
    List.concat_map
      (fun (_, trace) ->
        let tarr = trace_array trace steps in
        List.map
          (fun name () ->
            let alg =
              Registry.build_for_trace name ~epsilon ~seed:(seed + 1)
                ~trace:tarr inst
            in
            let r = Simulator.run inst alg (Trace.fixed tarr) ~steps in
            Tbl.cell_i (Cost.total r.Simulator.cost))
          head_to_head)
      oblivious
  in
  (* adaptive adversary: no static-oracle (it needs the trace up front);
     each cell drives its own adversary instance *)
  let adaptive_cells =
    List.filter_map
      (fun name ->
        if String.equal name "static-oracle" then None
        else
          Some
            (fun () ->
              let alg = build name ~epsilon ~seed:(seed + 1) inst in
              let r =
                Simulator.run inst alg (W.adversary_cut_chaser ~n) ~steps
              in
              Tbl.cell_i (Cost.total r.Simulator.cost)))
      head_to_head
  in
  let results = fan_out (cells @ adaptive_cells) in
  let width = List.length head_to_head in
  let rest =
    List.fold_left
      (fun remaining (wname, _) ->
        let row, rest = take width remaining in
        Tbl.add_row tbl (wname :: row);
        rest)
      results oblivious
  in
  Tbl.add_rule tbl;
  Tbl.add_row tbl (("cut-chaser" :: rest) @ [ "n/a" ]);
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E9: MTS solver ablation                                             *)
(* ------------------------------------------------------------------ *)

let e9_mts_ablation ?(quick = false) ?(seed = 37) () =
  header "e9" "Section-3 reduction instantiated with each MTS solver";
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 5_000 else 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create seed in
  (* (column label, registry name): onl-dynamic is the smin-MW variant *)
  let variants =
    [
      ("dyn/smin-mw", "onl-dynamic");
      ("dyn/wfa", "dyn/wfa");
      ("dyn/hst-mw", "dyn/hst-mw");
      ("dyn/marking", "dyn/marking");
    ]
  in
  let tbl = Tbl.create ~headers:("workload" :: List.map fst variants) in
  let workloads =
    [
      ("uniform", `Fixed (W.uniform ~n ~steps (Rng.split rng)));
      ("rotating", `Fixed (W.rotating ~n ~steps (Rng.split rng)));
      ("zipf", `Fixed (W.zipf ~n ~steps (Rng.split rng)));
      ("cut-chaser", `Adaptive);
    ]
  in
  (* one cell per (workload x solver); adaptive traces are built inside the
     cell so every solver drives a private adversary instance *)
  let cells =
    List.concat_map
      (fun (_, kind) ->
        List.map
          (fun (_, name) () ->
            let trace =
              match kind with
              | `Fixed t -> t
              | `Adaptive -> W.adversary_cut_chaser ~n
            in
            let alg = build name ~epsilon:0.5 ~seed:(seed + 1) inst in
            let r = Simulator.run inst alg trace ~steps in
            Tbl.cell_i (Cost.total r.Simulator.cost))
          variants)
      workloads
  in
  let width = List.length variants in
  let (_ : string list) =
    List.fold_left
      (fun remaining (wname, _) ->
        let row, rest = take width remaining in
        Tbl.add_row tbl (wname :: row);
        rest)
      (fan_out cells) workloads
  in
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E10: well-behaved strategy replay                                   *)
(* ------------------------------------------------------------------ *)

let e10_well_behaved ?(quick = false) ?(seed = 41) () =
  header "e10"
    "well-behaved clustering strategy vs exact dynamic OPT (Lemma 3.4)";
  let steps = if quick then 200 else 1_000 in
  let epsilon = 0.25 in
  let tbl =
    Tbl.create
      ~headers:
        [ "instance"; "workload"; "OPT"; "W cost"; "bound"; "within"; "invariants" ]
  in
  (* one cell per (instance x workload), fanned across domains; the exact-OPT
     DP table is built once per instance (via the shared cache, before the
     fan-out) and read by all of that instance's cells, while each solve
     allocates its own scratch.  Traces are generated sequentially here so
     the fan-out cannot perturb the rng stream. *)
  let cells =
    List.concat_map
      (fun (n, ell) ->
        let inst = Instance.blocks ~n ~ell in
        let k = inst.Instance.k in
        let dp = Rbgp_offline.Dynamic_opt.shared inst () in
        let rng = Rng.create seed in
        List.map
          (fun (wname, trace) ->
            let tarr = trace_array trace steps in
            ( (n, ell, k, wname),
              fun () ->
                let schedule, opt =
                  Rbgp_offline.Dynamic_opt.solve_schedule dp tarr
                in
                let ok, w_cost =
                  try
                    let wb =
                      Rbgp_core.Well_behaved.replay inst ~epsilon ~trace:tarr
                        ~schedule
                    in
                    (true, Rbgp_core.Well_behaved.total_cost wb)
                  with Failure _ -> (false, -1)
                in
                (Cost.total opt, ok, w_cost) ))
          [
            ("uniform", W.uniform ~n ~steps (Rng.split rng));
            ("rotating", W.rotating ~n ~steps ~arc:2 ~period:8 (Rng.split rng));
            ("hotspot", W.hotspot ~n ~steps ~arc:2 (Rng.split rng));
          ])
      [ (8, 2); (9, 3); (10, 2) ]
  in
  List.iter2
    (fun ((n, _ell, k, wname), _) (opt_total, ok, w_cost) ->
      let log2 x = log x /. log 2.0 in
      let bound =
        (4.0 /. epsilon *. log2 (fi k) *. fi opt_total)
        +. (2.0 *. fi n *. log2 (fi k))
      in
      Tbl.add_row tbl
        [
          Printf.sprintf "n=%d ell=%d" n _ell;
          wname;
          Tbl.cell_i opt_total;
          Tbl.cell_i w_cost;
          Tbl.cell_f bound;
          (if fi w_cost <= bound then "yes" else "NO");
          (if ok then "ok" else "VIOLATED");
        ])
    cells
    (fan_out (List.map snd cells));
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E11: epsilon ablation                                               *)
(* ------------------------------------------------------------------ *)

let e11_epsilon_ablation ?(quick = false) ?(seed = 43) () =
  header "e11" "augmentation vs cost: epsilon sweep for both core algorithms";
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 5_000 else 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create seed in
  let tarr = trace_array (W.rotating ~n ~steps (Rng.split rng)) steps in
  let tbl =
    Tbl.create
      ~headers:
        [ "epsilon"; "alg"; "claimed aug"; "max load / k"; "total cost" ]
  in
  let algorithms = [ ("onl-dynamic", seed + 1); ("onl-static", seed + 2) ] in
  let cells =
    List.concat_map
      (fun epsilon ->
        List.map
          (fun (name, alg_seed) () ->
            let alg = build name ~epsilon ~seed:alg_seed inst in
            let r = Simulator.run inst alg (Trace.fixed tarr) ~steps in
            ( epsilon,
              name,
              alg.Rbgp_ring.Online.augmentation,
              r.Simulator.max_load,
              Cost.total r.Simulator.cost ))
          algorithms)
      (if quick then [ 0.25; 1.0 ] else [ 0.1; 0.25; 0.5; 1.0; 2.0 ])
  in
  List.iter
    (fun (epsilon, name, aug, max_load, cost_total) ->
      Tbl.add_row tbl
        [
          Printf.sprintf "%.2f" epsilon;
          name;
          Printf.sprintf "%.2f" aug;
          Printf.sprintf "%.2f" (fi max_load /. fi inst.Instance.k);
          Tbl.cell_i cost_total;
        ])
    (fan_out cells);
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E12: internal parameter ablations                                   *)
(* ------------------------------------------------------------------ *)

let e12_parameter_ablation ?(quick = false) ?(seed = 47) () =
  header "e12" "design-choice ablations: smin scale c, delta_bar";
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 5_000 else 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let k = inst.Instance.k in
  let rng = Rng.create seed in
  let tarr = trace_array (W.zipf ~n ~steps (Rng.split rng)) steps in
  (* smin scale: c = diameter is the analysis' choice; smaller c reacts
     faster but moves more *)
  Printf.printf "\nsmin-mw scale c (dynamic algorithm, zipf trace):\n";
  let tbl = Tbl.create ~headers:[ "c / diameter"; "comm"; "mig"; "total" ] in
  let factor_cells =
    List.map
      (fun factor () ->
        let solver metric ~start ~rng =
          let c =
            Float.max 1.0 (factor *. fi (Rbgp_mts.Metric.diameter metric))
          in
          Rbgp_mts.Smin_mw.solver_with_scale ~c metric ~start ~rng
        in
        let alg =
          Rbgp_core.Dynamic_alg.create ~mts:solver ~epsilon:0.5 inst
            (Rng.create (seed + 1))
        in
        let r =
          Simulator.run inst
            (Rbgp_core.Dynamic_alg.online alg)
            (Trace.fixed tarr) ~steps
        in
        (factor, r.Simulator.cost))
      (if quick then [ 0.25; 1.0 ] else [ 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 ])
  in
  List.iter
    (fun (factor, cost) ->
      Tbl.add_row tbl
        [
          Printf.sprintf "%.2f" factor;
          Tbl.cell_i cost.Cost.comm;
          Tbl.cell_i cost.Cost.mig;
          Tbl.cell_i (Cost.total cost);
        ])
    (fan_out factor_cells);
  Tbl.print tbl;
  (* delta_bar: eager (paper's 14/15) vs lazier deactivation *)
  Printf.printf "\nslicing threshold delta_bar (static algorithm, zipf trace):\n";
  let tbl2 =
    Tbl.create ~headers:[ "delta_bar"; "comm"; "mig"; "total"; "max load / k" ]
  in
  let delta_cells =
    List.map
      (fun delta_bar () ->
        let alg =
          Rbgp_core.Static_alg.create ~delta_bar ~epsilon:0.5 inst
            (Rng.create (seed + 2))
        in
        let r =
          Simulator.run ~strict:false inst
            (Rbgp_core.Static_alg.online alg)
            (Trace.fixed tarr) ~steps
        in
        (delta_bar, r.Simulator.cost, r.Simulator.max_load))
      (if quick then [ 0.75; 14.0 /. 15.0 ]
       else [ 0.6; 0.75; 0.85; 14.0 /. 15.0; 0.97 ])
  in
  List.iter
    (fun (delta_bar, cost, max_load) ->
      Tbl.add_row tbl2
        [
          Printf.sprintf "%.3f" delta_bar;
          Tbl.cell_i cost.Cost.comm;
          Tbl.cell_i cost.Cost.mig;
          Tbl.cell_i (Cost.total cost);
          Printf.sprintf "%.2f" (fi max_load /. fi k);
        ])
    (fan_out delta_cells);
  Tbl.print tbl2;
  Printf.printf
    "note: delta_bar below the paper's max(2/(2+eps'), 14/15) voids the \
     capacity guarantee (the run tolerates violations and reports max \
     load), which is exactly why the paper needs the eager threshold.\n"

(* ------------------------------------------------------------------ *)
(* E13: cumulative cost curves                                         *)
(* ------------------------------------------------------------------ *)

let e13_time_series ?(quick = false) ?(seed = 53) () =
  header "e13" "cumulative cost over time (rotating hotspot)";
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 8_000 else 24_000 in
  let samples = 8 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create seed in
  let tarr = trace_array (W.rotating ~n ~steps (Rng.split rng)) steps in
  let curves =
    List.map
      (fun name ->
        let alg =
          Registry.build_for_trace name ~epsilon:0.5 ~seed:(seed + 1)
            ~trace:tarr inst
        in
        (name, cumulative_totals inst alg tarr ~steps))
      head_to_head
  in
  let tbl =
    Tbl.create ~headers:("step" :: List.map fst curves)
  in
  for s = 1 to samples do
    let step = (s * steps / samples) - 1 in
    Tbl.add_row tbl
      (Tbl.cell_i (step + 1)
      :: List.map
           (fun (_, totals) -> Tbl.cell_i totals.(step))
           curves)
  done;
  Tbl.print tbl;
  Printf.printf
    "each cell is cumulative cost after the given step; onl-static starts \
     at zero (strictness) and the drifting hotspot makes purely static \
     placements accumulate linearly between re-optimization points.\n"

(* ------------------------------------------------------------------ *)
(* E14: the learning variant                                           *)
(* ------------------------------------------------------------------ *)

let e14_learning_variant ?(quick = false) ?(seed = 59) () =
  header "e14"
    "learning variant vs ring demand: why components are not enough";
  Printf.printf
    "'partitionable' draws requests from a hidden balanced partition (the \
     learning variant's input class); 'uniform' and 'allreduce' are \
     genuine ring demand, where every partition keeps paying.\n";
  let n = if quick then 128 else 256 in
  let ell = 8 in
  let steps = if quick then 5_000 else 20_000 in
  let inst = Instance.blocks ~n ~ell in
  let rng = Rng.create seed in
  (* (name, seed offset); the baselines draw no randomness *)
  let algorithms =
    [
      ("component-learning", 0);
      ("onl-dynamic", 1);
      ("onl-static", 2);
      ("never-move", 0);
    ]
  in
  (* each cell is "first half + second half": a converging algorithm's
     second half goes to ~0 *)
  let tbl =
    Tbl.create
      ~headers:
        ("workload (1st+2nd half)" :: List.map fst algorithms)
  in
  List.iter
    (fun (wname, trace) ->
      let tarr = trace_array trace steps in
      let row =
        List.map
          (fun (name, offset) ->
            let alg = build name ~epsilon:0.5 ~seed:(seed + offset) inst in
            let totals = cumulative_totals inst alg tarr ~steps in
            let half = totals.((steps / 2) - 1) in
            Printf.sprintf "%d+%d" half (totals.(steps - 1) - half))
          algorithms
      in
      Tbl.add_row tbl (wname :: row))
    [
      ( "partitionable",
        W.partitionable ~n ~ell ~steps (Rng.split rng) );
      ("uniform", W.uniform ~n ~steps (Rng.split rng));
      ("allreduce", W.allreduce ~n ~steps);
    ];
  Tbl.print tbl;
  Printf.printf
    "expected: component-learning's second half is ~0 on partitionable \
     demand (it learned the hidden blocks) but keeps paying on ring \
     demand; the paper's algorithms are competitive on both.\n"

(* ------------------------------------------------------------------ *)

let all =
  [
    ("e1", "dynamic load bound (Lemma 3.1)", e1_dynamic_load);
    ("e2", "ONL_R vs OPT_R (Lemma 3.3)", e2_interval_ratio);
    ("e3", "dynamic competitive ratio (Theorem 2.1)", e3_dynamic_ratio);
    ("e4", "deterministic Omega(k) separation (Lemma 4.1)", e4_deterministic_lower_bound);
    ("e5", "interval growing ratio (Corollary 4.4)", e5_hitting_ratio);
    ("e6", "static load bound (Lemma 4.13)", e6_static_load);
    ("e7", "static competitive ratio (Theorem 2.2)", e7_static_ratio);
    ("e8", "head-to-head comparison", e8_head_to_head);
    ("e9", "MTS solver ablation", e9_mts_ablation);
    ("e10", "well-behaved strategy (Lemma 3.4)", e10_well_behaved);
    ("e11", "epsilon / augmentation ablation", e11_epsilon_ablation);
    ("e12", "internal parameter ablations", e12_parameter_ablation);
    ("e13", "cumulative cost curves", e13_time_series);
    ("e14", "learning variant vs ring demand", e14_learning_variant);
  ]

let run ?quick ?seed id =
  if id = "all" then
    List.iter (fun (_, _, f) -> f ?quick ?seed ()) all
  else
    match List.find_opt (fun (i, _, _) -> i = id) all with
    | Some (_, _, f) -> f ?quick ?seed ()
    | None -> invalid_arg (Printf.sprintf "Report.run: unknown experiment %S" id)
