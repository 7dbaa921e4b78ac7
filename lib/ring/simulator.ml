type result = {
  cost : Cost.t;
  steps : int;
  max_load : int;
  capacity_violations : int;
  per_step : (int * int) array option;
}

(* Largest integer load that satisfies [load <= augmentation * k + 1e-9] —
   the same tolerance as Assignment.check_capacity, precomputed so the
   per-step capacity check compares integers. *)
let capacity_cap (inst : Instance.t) ~augmentation =
  int_of_float ((augmentation *. float_of_int inst.Instance.k) +. 1e-9)

type stepper = {
  inst : Instance.t;
  alg : Online.t;
  strict : bool;
  cap : int;
  current : Assignment.t;
  journal : Assignment.journal;
  drain : int -> unit;
  moved : int ref;
  s_cost : Cost.t;
  mutable s_steps : int;
  mutable s_max_load : int;
  mutable s_violations : int;
}

let stepper ?(strict = true) ?cost ?max_load ?violations ?(steps_done = 0)
    (inst : Instance.t) (alg : Online.t) =
  let current = alg.Online.assignment () in
  let journal = Assignment.journal current in
  (* setup-time moves (algorithm construction, or a checkpoint restore)
     predate the simulation and are already in the shadow snapshot *)
  Assignment.journal_clear journal;
  let shadow = Assignment.to_array current in
  let moved = ref 0 in
  (* Bills one journaled process against the shadow, which is advanced per
     touched process: a process that moved away and back within one step
     costs nothing, and one that moved twice costs 1 — the Hamming
     distance between the assignments before and after the step. *)
  let drain p =
    let s = Assignment.server_of current p in
    if shadow.(p) <> s then begin
      incr moved;
      shadow.(p) <- s
    end
  in
  let load = Assignment.max_load current in
  {
    inst;
    alg;
    strict;
    cap = capacity_cap inst ~augmentation:alg.Online.augmentation;
    current;
    journal;
    drain;
    moved;
    s_cost = (match cost with Some c -> c | None -> Cost.zero ());
    s_steps = steps_done;
    s_max_load = (match max_load with Some m -> max m load | None -> load);
    s_violations = (match violations with Some v -> v | None -> 0);
  }

(* [serve_now st x] performs the algorithm action for this step; [x] is
   caller-chosen (the edge for the per-request paths, the batch index for
   the prepared path) so the actions can be top-level or per-batch values
   and no per-request closure is allocated (r11 patrols this path). *)
let step_with st e serve_now x =
  if e < 0 || e >= st.inst.Instance.n then
    invalid_arg "Simulator.step: edge out of range";
  (* Online.assignment is contractually a live view, so the handle taken
     once per stepper sees the post-serve state *)
  let current = st.current in
  let comm = if Assignment.cuts_edge current e then 1 else 0 in
  st.s_cost.Cost.comm <- st.s_cost.Cost.comm + comm;
  serve_now st x;
  st.moved := 0;
  Assignment.journal_drain st.journal st.drain;
  let moved = !(st.moved) in
  st.s_cost.Cost.mig <- st.s_cost.Cost.mig + moved;
  (* loads are read only after the whole step: mid-step transients (a
     process arriving before another departs) are not states of the
     model *)
  let load = Assignment.max_load current in
  if load > st.s_max_load then st.s_max_load <- load;
  if load > st.cap then begin
    st.s_violations <- st.s_violations + 1;
    if st.strict then
      failwith
        (Printf.sprintf
           "Simulator.run: %s violated capacity at step %d (max load %d, \
            claimed augmentation %.3f, k=%d)"
           st.alg.Online.name st.s_steps load st.alg.Online.augmentation
           st.inst.Instance.k)
  end;
  st.s_steps <- st.s_steps + 1;
  (comm, moved)

let serve_action st e = st.alg.Online.serve e
let frozen_action (_ : stepper) (_ : int) = ()
let step st e = step_with st e serve_action e

(* A degraded "never-move" accounting step: the request is billed exactly
   as if a never-move algorithm had served it (communication charged when
   the edge is cut, zero migrations, loads unchanged) but the real
   algorithm is not consulted, so an over-budget or stalled solver is
   bypassed without losing cost accounting.  The algorithm's state is
   untouched, so a checkpoint of it stays exact across frozen requests. *)
let step_frozen st e = step_with st e frozen_action e

(* Batched stepping: pre-solve the algorithm's decisions for the whole
   batch (in parallel, when the algorithm provides [Online.batch]), then
   play them through the exact per-request accounting above.  All edges are
   validated up front — the algorithm's batch hook may inspect them before
   any step is played. *)
let prepare st edges =
  let n = st.inst.Instance.n in
  Array.iter
    (fun e ->
      if e < 0 || e >= n then invalid_arg "Simulator.step: edge out of range")
    edges;
  let apply =
    match st.alg.Online.batch with
    | Some b when Array.length edges > 1 -> b edges
    | _ -> fun j -> st.alg.Online.serve edges.(j)
  in
  (* one action per batch, indexed by j — not one closure per request *)
  let apply_action _st j = apply j in
  let next = ref 0 in
  fun j ->
    if j <> !next then
      invalid_arg "Simulator.prepare: requests must be played in order";
    incr next;
    step_with st edges.(j) apply_action j

let stepper_result st =
  {
    cost = st.s_cost;
    steps = st.s_steps;
    max_load = st.s_max_load;
    capacity_violations = st.s_violations;
    per_step = None;
  }

let run ?(strict = true) ?(record_steps = false) ?on_step (inst : Instance.t)
    (alg : Online.t) trace ~steps =
  if steps < 0 then invalid_arg "Simulator.run: negative steps";
  Trace.validate ~n:inst.Instance.n trace ~steps;
  let st = stepper ~strict inst alg in
  let series = if record_steps then Array.make steps (0, 0) else [||] in
  for t = 0 to steps - 1 do
    let e = Trace.next trace t st.current in
    if e < 0 || e >= inst.Instance.n then
      invalid_arg "Simulator.run: trace produced edge out of range";
    let _ = step st e in
    if record_steps then series.(t) <- (st.s_cost.Cost.comm, st.s_cost.Cost.mig);
    match on_step with None -> () | Some f -> f t st.s_cost
  done;
  let r = stepper_result st in
  { r with per_step = (if record_steps then Some series else None) }

let replay_cost (inst : Instance.t) trace ~assignments =
  let steps = Array.length trace in
  if Array.length assignments <> steps then
    invalid_arg "Simulator.replay_cost: schedule length mismatch";
  let cost = Cost.zero () in
  let n = inst.Instance.n in
  let prev = ref inst.Instance.initial in
  for t = 0 to steps - 1 do
    let a = assignments.(t) in
    if Array.length a <> n then
      invalid_arg "Simulator.replay_cost: assignment length mismatch";
    (* migrations charged when moving into the configuration serving step t *)
    for p = 0 to n - 1 do
      if a.(p) <> !prev.(p) then cost.Cost.mig <- cost.Cost.mig + 1
    done;
    let e = trace.(t) in
    if a.(e) <> a.((e + 1) mod n) then cost.Cost.comm <- cost.Cost.comm + 1;
    prev := a
  done;
  cost
