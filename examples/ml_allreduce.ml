(* Elastic distributed training with ring allreduce.

   The paper motivates ring demands with machine-learning traffic: workers
   in data-parallel training exchange gradients along a logical ring
   (Horovod-style ring allreduce).  Virtualized workers get (re)scheduled
   onto physical servers; co-locating ring neighbours on the same server
   makes their exchange free, while cross-server hops pay the "bandwidth
   tax".

   This example models an elastic training fleet:
   - 128 workers on 8 servers (capacity 16);
   - training alternates between allreduce sweeps (every worker exchanges
     with its ring successor, in order) and phases where a section of the
     ring is hot (e.g. pipeline stages resharding, stragglers
     retransmitting) that slowly drifts as the job rebalances.

   Every partition must cut the ring somewhere, so allreduce sweeps cost
   any algorithm about steps/k; the interesting question is how much extra
   the online algorithms pay on top, and how they handle the drifting hot
   section.  Run with: dune exec examples/ml_allreduce.exe *)

let n = 128
let ell = 8
let steps = 24_000

let build_trace rng =
  (* interleave: 2/3 allreduce sweeps, 1/3 drifting hot section *)
  let hot_arc = n / 16 in
  let sweep = ref 0 in
  Array.init steps (fun t ->
      if t mod 3 < 2 then begin
        let e = !sweep in
        sweep := (!sweep + 1) mod n;
        e
      end
      else
        let center = t * n / steps (* one slow revolution over the run *) in
        (center + Rbgp_util.Rng.int rng hot_arc) mod n)

let () =
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let trace = build_trace (Rbgp_util.Rng.create 7) in
  let k = inst.Rbgp_ring.Instance.k in
  Format.printf
    "elastic training: %d workers, %d servers (capacity %d), %d requests@."
    n ell k steps;
  Format.printf
    "any partition pays ~%d on the allreduce sweeps alone (steps * 2/3 / k)@."
    (steps * 2 / 3 / k);

  List.iter
    (fun (name, label) ->
      let alg =
        Rbgp_serve.Registry.build_for_trace name ~epsilon:0.5 ~seed:7 ~trace
          inst
      in
      let r =
        Rbgp_ring.Simulator.run inst alg (Rbgp_ring.Trace.fixed trace) ~steps
      in
      Format.printf "  %-24s %a  (max load %d)@." label Rbgp_ring.Cost.pp
        r.Rbgp_ring.Simulator.cost r.Rbgp_ring.Simulator.max_load)
    [
      ("onl-dynamic", "onl-dynamic (Thm 2.1)");
      ("onl-static", "onl-static (Thm 2.2)");
      ("never-move", "never-move");
      ("greedy-colocate", "greedy-colocate");
      ("static-oracle", "static-oracle (offline)");
    ];

  let lb = Rbgp_offline.Lower_bound.dynamic_lb inst trace () in
  Format.printf "certified dynamic OPT lower bound: %d@." lb
