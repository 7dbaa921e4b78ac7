type result = {
  cost : Cost.t;
  steps : int;
  max_load : int;
  capacity_violations : int;
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
  n : int;
  current : Assignment.t;
  journal : Assignment.journal;
  (* The assignment as of the last step boundary.  Every step that moved
     something syncs it from the journal, so between steps it equals the
     live assignment and the pre-serve cut check reads it directly. *)
  shadow : int array;
  s_cost : Cost.t;
  mutable s_steps : int;
  mutable s_max_load : int;
  mutable s_violations : int;
  (* the assignment's maximum load, read at the last step that moved
     something: loads change only through journaled [Assignment.set] *)
  mutable load : int;
}

let stepper ?(strict = true) ?cost ?max_load ?violations ?(steps_done = 0)
    (inst : Instance.t) (alg : Online.t) =
  let current = alg.Online.assignment () in
  let journal = Assignment.journal current in
  (* setup-time moves (algorithm construction, or a checkpoint restore)
     predate the simulation and are already in the shadow snapshot *)
  Assignment.journal_clear journal;
  let load = Assignment.max_load current in
  {
    inst;
    alg;
    strict;
    cap = capacity_cap inst ~augmentation:alg.Online.augmentation;
    n = inst.Instance.n;
    current;
    journal;
    shadow = Assignment.to_array current;
    s_cost = (match cost with Some c -> c | None -> Cost.zero ());
    s_steps = steps_done;
    s_max_load = (match max_load with Some m -> max m load | None -> load);
    s_violations = (match violations with Some v -> v | None -> 0);
    load;
  }

let check_edge st e =
  if e < 0 || e >= st.n then invalid_arg "Simulator.step: edge out of range"

(* Bills the step's journaled moves against the shadow, advancing it per
   touched process: a process that moved away and back within one step
   costs nothing, and one that moved twice costs 1 — the Hamming distance
   between the assignments before and after the step.  Loads are read
   only here, after the whole step: mid-step transients (a process
   arriving before another departs) are not states of the model. *)
let sync st =
  let j = st.journal and shadow = st.shadow in
  for i = 0 to j.Assignment.len - 1 do
    let p = j.Assignment.buf.(i) in
    let s = Assignment.server_of st.current p in
    if shadow.(p) <> s then begin
      st.s_cost.Cost.mig <- st.s_cost.Cost.mig + 1;
      shadow.(p) <- s
    end
  done;
  Assignment.journal_clear j;
  let load = Assignment.max_load st.current in
  st.load <- load;
  if load > st.s_max_load then st.s_max_load <- load

let violation st =
  st.s_violations <- st.s_violations + 1;
  if st.strict then
    failwith
      (Printf.sprintf
         "Simulator.run: %s violated capacity at step %d (max load %d, \
          claimed augmentation %.3f, k=%d)"
         st.alg.Online.name st.s_steps st.load st.alg.Online.augmentation
         st.inst.Instance.k)

(* The billing rule, for an edge already checked to be in range: 1 of
   communication iff the edge is cut before the algorithm reacts, then
   ([served]) the algorithm's reaction, its moves and the capacity check.
   The cut is read from the shadow, which equals the assignment at a step
   boundary; a step that journaled nothing skips the sync, and its
   capacity check reuses the cached load.  Every path bills through
   here, and none allocates. *)
let[@inline] bill st e ~served =
  let shadow = st.shadow in
  if shadow.(e) <> shadow.(if e + 1 = st.n then 0 else e + 1) then
    st.s_cost.Cost.comm <- st.s_cost.Cost.comm + 1;
  if served then st.alg.Online.serve e;
  if st.journal.Assignment.len > 0 then sync st;
  if st.load > st.cap then violation st;
  st.s_steps <- st.s_steps + 1

let advance st e =
  check_edge st e;
  bill st e ~served:true

(* A degraded "never-move" accounting step: the request is billed exactly
   as if a never-move algorithm had served it (communication charged when
   the edge is cut, zero migrations, loads unchanged) but the real
   algorithm is not consulted, so an over-budget or stalled solver is
   bypassed without losing cost accounting.  The algorithm's state is
   untouched, so a checkpoint of it stays exact across frozen requests. *)
let advance_frozen st e =
  check_edge st e;
  bill st e ~served:false

let advance_block st edges len =
  if len < 0 || len > Array.length edges then
    invalid_arg "Simulator.advance_block: length out of range";
  for j = 0 to len - 1 do
    check_edge st edges.(j)
  done;
  for j = 0 to len - 1 do
    bill st edges.(j) ~served:true
  done

(* A step and its (comm, migrations): the growth of the cumulative costs
   across it. *)
let step st e =
  let comm = st.s_cost.Cost.comm and mig = st.s_cost.Cost.mig in
  advance st e;
  (st.s_cost.Cost.comm - comm, st.s_cost.Cost.mig - mig)

let prepare st edges =
  Array.iter (check_edge st) edges;
  let next = ref 0 in
  fun j ->
    if j <> !next then
      invalid_arg "Simulator.prepare: requests must be played in order";
    incr next;
    step st edges.(j)

let max_load st = st.s_max_load

let stepper_result st =
  {
    cost = st.s_cost;
    steps = st.s_steps;
    max_load = st.s_max_load;
    capacity_violations = st.s_violations;
  }

let run ?(strict = true) ?on_step (inst : Instance.t) (alg : Online.t) trace
    ~steps =
  if steps < 0 then invalid_arg "Simulator.run: negative steps";
  Trace.validate ~n:inst.Instance.n trace ~steps;
  let st = stepper ~strict inst alg in
  for t = 0 to steps - 1 do
    let e = Trace.next trace t st.current in
    if e < 0 || e >= inst.Instance.n then
      invalid_arg "Simulator.run: trace produced edge out of range";
    bill st e ~served:true;
    match on_step with None -> () | Some f -> f t st.s_cost
  done;
  stepper_result st

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
