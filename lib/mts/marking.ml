let threshold = 1.0

let solver : Mts.factory =
 fun metric ~start ~rng ->
  let s = Metric.size metric in
  let phase_cost = Array.make s 0.0 in
  let next e current =
    phase_cost.(e) <- phase_cost.(e) +. 1.0;
    if phase_cost.(current) < threshold then current
    else begin
      let unmarked = ref [] in
      for i = s - 1 downto 0 do
        if phase_cost.(i) < threshold then unmarked := i :: !unmarked
      done;
      match !unmarked with
      | [] ->
          (* all marked: the phase ends; reset costs, keep only the new
             arrivals of this step, and restart from a random state *)
          for i = 0 to s - 1 do
            phase_cost.(i) <- 0.0
          done;
          Rbgp_util.Rng.int rng s
      | candidates ->
          let arr = Array.of_list candidates in
          arr.(Rbgp_util.Rng.int rng (Array.length arr))
    end
  in
  Mts.make ~name:"marking" ~metric ~start ~next
    ~save:(fun buf ->
      Rbgp_util.Binc.add_counts buf phase_cost;
      Rbgp_util.Rng.save buf rng)
    ~load:(fun r ->
      Rbgp_util.Binc.read_counts r phase_cost;
      Rbgp_util.Rng.load r rng)
