(* Survey: every algorithm against every workload regime.

   A compact version of experiment E8 built purely from the public API —
   use it as a template for evaluating your own workload or algorithm.
   Each cell is total cost (communication + migration) over the trace; the
   last column is the certified lower bound on what *any* dynamic schedule
   must pay, so a column close to it is near-optimal on that row.

   Run with: dune exec examples/compare_algorithms.exe *)

let n = 128
let ell = 8
let steps = 10_000
let epsilon = 0.5

let () =
  let inst = Rbgp_ring.Instance.blocks ~n ~ell in
  let algorithms =
    [ "onl-dynamic"; "onl-static"; "never-move"; "greedy-colocate";
      "counter-threshold"; "static-oracle" ]
  in
  let tbl =
    Rbgp_util.Tbl.create ~headers:(("workload" :: algorithms) @ [ "dynOPT>=" ])
  in
  List.iter
    (fun (wname, trace) ->
      let tarr =
        match trace with Rbgp_ring.Trace.Fixed a -> a | _ -> assert false
      in
      let cells =
        List.map
          (fun name ->
            let alg =
              Rbgp_serve.Registry.build_for_trace name ~epsilon ~seed:12
                ~trace:tarr inst
            in
            let r =
              Rbgp_ring.Simulator.run inst alg (Rbgp_ring.Trace.fixed tarr)
                ~steps
            in
            Rbgp_util.Tbl.cell_i
              (Rbgp_ring.Cost.total r.Rbgp_ring.Simulator.cost))
          algorithms
      in
      let lb = Rbgp_offline.Lower_bound.dynamic_lb inst tarr () in
      Rbgp_util.Tbl.add_row tbl ((wname :: cells) @ [ Rbgp_util.Tbl.cell_i lb ]))
    (Rbgp_workloads.Workloads.all_fixed ~n ~steps (Rbgp_util.Rng.create 12));
  Rbgp_util.Tbl.print tbl
