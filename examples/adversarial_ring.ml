(* Why randomization is necessary: the cut-chasing adversary.

   Avin et al. (DISC 2016) proved that every deterministic algorithm for
   dynamic balanced ring partitioning is Omega(k)-competitive: an adversary
   that watches where the algorithm cuts the ring and always requests a cut
   edge makes it pay on every step, while in hindsight a schedule that puts
   the (few) chased boundaries elsewhere pays almost nothing.  Beating this
   requires randomization — which is the paper's whole point.

   This example runs that adversary against deterministic and randomized
   algorithms (adaptively: the adversary sees the realized configuration),
   and then re-prices the generated traces offline.  It also runs the
   hitting-game version (Lemma 4.1) where the separation is the cleanest:
   the deterministic player is Theta(k)-competitive on its chase trace
   while interval growing stays polylogarithmic on the very same trace.

   Run with: dune exec examples/adversarial_ring.exe *)

let () =
  let n = 128 and ell = 8 in
  let steps = 10_000 in
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let rng = Rbgp_util.Rng.create 3 in
  Format.printf "ring cut-chaser, n=%d ell=%d k=%d, %d adaptive requests@." n
    ell inst.Rbgp_ring.Instance.k steps;
  List.iter
    (fun (name, alg) ->
      let r =
        Rbgp_ring.Simulator.run inst alg
          (Rbgp_workloads.Workloads.adversary_cut_chaser ~n)
          ~steps
      in
      Format.printf "  %-20s %a@." name Rbgp_ring.Cost.pp
        r.Rbgp_ring.Simulator.cost)
    [
      ("never-move", Rbgp_baselines.Baselines.never_move inst);
      ("greedy-colocate", Rbgp_baselines.Baselines.greedy_colocate inst);
      ("counter-threshold",
       Rbgp_baselines.Baselines.counter_threshold ~epsilon:0.5 inst);
      ("onl-dynamic",
       Rbgp_core.Dynamic_alg.online
         (Rbgp_core.Dynamic_alg.create ~epsilon:0.5 inst
            (Rbgp_util.Rng.split rng)));
      ("onl-static",
       Rbgp_core.Static_alg.online
         (Rbgp_core.Static_alg.create ~epsilon:0.5 inst
            (Rbgp_util.Rng.split rng)));
    ];

  (* the hitting game separation (Lemma 4.1) *)
  let k = 64 in
  let game_steps = 4 * k * k in
  Format.printf
    "@.hitting game on %d edges, %d steps: chase the deterministic dodger, \
     then replay its trace against the randomized player@." k game_steps;
  let dodger = Rbgp_hitting.Game.greedy_dodge ~k () in
  let trace =
    Rbgp_hitting.Game.run_adaptive dodger ~steps:game_steps ~next:(fun _ pos ->
        pos)
  in
  let opt = Rbgp_hitting.Static_opt.static ~k trace in
  Format.printf "  static OPT of the chase trace: %.0f@." opt;
  Format.printf "  greedy-dodge (deterministic): %.0f  -> ratio %.1f (~k/2 = %d)@."
    (Rbgp_hitting.Game.total_cost dodger)
    (Rbgp_hitting.Game.total_cost dodger /. opt)
    (k / 2);
  let ig =
    Rbgp_hitting.Interval_growing.(player (line ~k (Rbgp_util.Rng.split rng)))
  in
  Rbgp_hitting.Game.run ig trace;
  let ig_cost = Rbgp_hitting.Game.total_cost ig in
  Format.printf
    "  interval-growing (randomized, same trace): %.0f  -> ratio %.1f \
     (log2 k = %.1f)@."
    ig_cost (ig_cost /. opt)
    (log (float_of_int k) /. log 2.0)
