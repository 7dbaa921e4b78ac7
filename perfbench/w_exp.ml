(* exp-tables: experiment tables E3, E8 and E10 through Report.run at
   their --quick sizes, stdout captured, at Pool's default domain count.
   The only workload that exercises Rbgp_offline, Rbgp_hitting and
   Runner.fan_out over Pool.  Each table is one call; throughput_rps is
   tables per second.  (At full size one pass takes ~7 s on a 2-core host,
   too few passes per run to be steady there; the quick sizes run the same
   code paths.) *)

open Common
module Report = Rbgp_harness.Report
module Pool = Rbgp_util.Pool

let tables = [ "e3"; "e8"; "e10" ]

(* One pass over the tables; the per-table seconds, whether the last map of
   each ran in parallel, and the digest of the captured output. *)
let pass ctx calls =
  let out = Filename.concat ctx.work "tables.txt" in
  let per_table = ref [] and parallel = ref 0 in
  let t0 = Clock.now_ns () in
  with_stdout_to out (fun () ->
      List.iter
        (fun id ->
          incr Span.request;
          let c0 = Clock.now_ns () in
          Span.enter Span.Table;
          Report.run ~quick:true ~seed:ctx.seed id;
          Span.leave ();
          let dt = Clock.now_ns () - c0 in
          Hist.record calls dt;
          per_table := (id, float_of_int dt *. 1e-9) :: !per_table;
          if Pool.last_map_parallel () then incr parallel;
          Res.attempt ctx.res)
        tables);
  let wall = Clock.seconds_since t0 in
  ((List.rev !per_table, !parallel, Digest.to_hex (Digest.file out)), wall)

let run ctx =
  (* set-up: spawn the pool's domains and run the tables once, so code,
     pool workers and the pool's per-family cost estimates are warm before
     timing *)
  let setups, () =
    setup_thrice (fun () ->
        Pool.warmup ();
        ignore (pass ctx (Hist.create ())))
  in
  let gc = ref [] in
  let passes, calls =
    repeat
      ~seconds:(if ctx.trace then ctx.seconds /. 2. else ctx.seconds)
      ~min_passes:2
      (fun _ calls ->
        let r, minor, major = gc_during (fun () -> pass ctx calls) in
        gc := (minor, float_of_int major) :: !gc;
        r)
  in
  let timings = List.map snd passes in
  let digest = match passes with ((_, _, d), _) :: _ -> d | [] -> "" in
  List.iter
    (fun ((_, _, d), _) ->
      Res.check ctx.res "exp-tables: output digest identical across passes"
        (String.equal d digest))
    passes;
  let r = ctx.res in
  let ntables = float_of_int (List.length tables) in
  if not ctx.trace then
    report_e2e ctx ~setup:setups ~passes:timings ~units:ntables
  else begin
    report_tail ctx calls timings;
    Res.set r "gc.minor_words_per_req" (median (List.map (fun (w, _) -> w /. ntables) !gc));
    Res.set r "gc.major_collections" (median (List.map snd !gc));
    Res.set r "pool.parallel_frac"
      (median (List.map (fun ((_, p, _), _) -> float_of_int p /. ntables) passes));
    Gc.full_major ();
    let ((per_table, _, d), _), wall =
      Span.traced (fun () -> pass ctx (Hist.create ()))
    in
    Res.check ctx.res "exp-tables: traced output digest identical"
      (String.equal d digest);
    overhead ctx ~traced_wall:wall ~untraced:timings;
    List.iter (fun (id, s) -> Res.set r ("exp." ^ id ^ "_s") s) per_table;
    share ctx "exp" (Span.self_ns Span.Table) ~wall;
    Res.set r "waterfall.unattributed_frac"
      (float_of_int (Span.self_ns Span.Root) /. float_of_int wall)
  end
