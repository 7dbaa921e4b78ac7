module Instance = Rbgp_ring.Instance
module Online = Rbgp_ring.Online
module Assignment = Rbgp_ring.Assignment
module Simulator = Rbgp_ring.Simulator
module Cost = Rbgp_ring.Cost

type decision = {
  step : int;
  edge : int;
  comm : int;
  moved : int;
  cum_comm : int;
  cum_mig : int;
  max_load : int;
  latency_ns : int;
}

type t = {
  inst : Instance.t;
  alg_name : string;
  epsilon : float;
  seed : int;
  online : Online.t;
  snapshot : unit -> string;  (* the algorithm's O(state) snapshot hook *)
  stepper : Simulator.stepper;
  metrics : Metrics.t;
  mutable pos : int;
  mutable digest : int;  (* Checkpoint.digest_add over the served edges *)
  sanitize : bool;
  (* solver-budget degradation: when a request's effective solve time
     exceeds [budget_ns] (> 0 enables), the next [cooloff] requests are
     served on the frozen never-move path, then the solver is re-promoted.
     The frozen requests never reach the algorithm, so its snapshot
     already reflects them; only the remaining cooloff is checkpointed. *)
  mutable budget_ns : int;
  mutable cooloff : int;
  mutable degraded_left : int;
}

let now_ns () = Rbgp_util.Clock.now_ns ()

let sanitize_default () =
  match Sys.getenv_opt "RBGP_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* --- runtime sanitizer ------------------------------------------------ *)

(* Per-request invariant checks, run after every [Simulator.step] when the
   engine was created with [~sanitize:true] (or RBGP_SANITIZE=1).  Each
   check is an invariant the rest of the system silently relies on; the
   sanitizer turns a silent corruption into a [Failure] naming the request
   index at which it first became observable. *)
let check_step_invariants t ~step ~comm ~prev_comm ~prev_mig ~prev_max
    (r : Simulator.result) =
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        failwith (Printf.sprintf "RBGP_SANITIZE: request %d: %s" step s))
      fmt
  in
  let a = t.online.Online.assignment () in
  let n = t.inst.Instance.n and ell = t.inst.Instance.ell in
  if Assignment.n a <> n then
    fail "assignment covers %d processes, instance has %d" (Assignment.n a) n;
  (* partition validity: every process on a real server, cached loads in
     sync with the map (their sum over all servers is then n by counting) *)
  let counts = Array.make ell 0 in
  for p = 0 to n - 1 do
    let s = Assignment.server_of a p in
    if s < 0 || s >= ell then
      fail "process %d assigned to invalid server %d (ell = %d)" p s ell;
    counts.(s) <- counts.(s) + 1
  done;
  let loads = Assignment.loads a in
  for s = 0 to ell - 1 do
    if counts.(s) <> loads.(s) then
      fail "server %d: cached load %d, but %d processes actually assigned" s
        loads.(s) counts.(s)
  done;
  (* augmented capacity bound claimed by the algorithm *)
  let augmentation = t.online.Online.augmentation in
  if not (Assignment.check_capacity a ~augmentation) then
    fail "max load %d exceeds augmentation bound %.3f * k = %.3f"
      (Assignment.max_load a) augmentation
      (augmentation *. float_of_int t.inst.Instance.k);
  (* accounting sanity: unit communication charges, monotone cumulatives *)
  if comm <> 0 && comm <> 1 then fail "communication charge %d not in {0,1}" comm;
  if r.Simulator.cost.Cost.comm < prev_comm then
    fail "cumulative comm decreased: %d -> %d" prev_comm
      r.Simulator.cost.Cost.comm;
  if r.Simulator.cost.Cost.mig < prev_mig then
    fail "cumulative mig decreased: %d -> %d" prev_mig r.Simulator.cost.Cost.mig;
  if r.Simulator.max_load < prev_max then
    fail "running max load decreased: %d -> %d" prev_max r.Simulator.max_load

let snapshot_hook ~alg (online : Online.t) =
  match online.Online.snapshot with
  | Some snap -> snap
  | None ->
      invalid_arg
        (Printf.sprintf "Engine: algorithm %s has no snapshot hook" alg)

let make_engine ?(strict = true) ?sanitize ~epsilon ~alg ~seed
    ?(cost = Cost.zero ()) ?max_load ?violations ?(steps_done = 0)
    ?(digest = Checkpoint.digest_empty) (inst : Instance.t)
    (online : Online.t) =
  let snapshot = snapshot_hook ~alg online in
  let stepper =
    Simulator.stepper ~strict ~cost ?max_load ?violations ~steps_done inst
      online
  in
  let sanitize =
    match sanitize with Some b -> b | None -> sanitize_default ()
  in
  {
    inst;
    alg_name = alg;
    epsilon;
    seed;
    online;
    snapshot;
    stepper;
    metrics = Metrics.create ();
    pos = steps_done;
    digest;
    sanitize;
    budget_ns = 0;
    cooloff = 64;
    degraded_left = 0;
  }

let create ?strict ?sanitize ?(epsilon = 0.5) ~alg ~seed inst =
  let spec = Registry.find alg in
  let online = spec.Registry.build ~epsilon ~seed inst in
  make_engine ?strict ?sanitize ~epsilon ~alg ~seed inst online

(* One request's bookkeeping around [play] (the accounting step):
   identical for the per-request and batched paths, so every decision
   field except the wall-clock [latency_ns] is byte-identical between
   them.  [play] takes the stepper and a caller-chosen argument ([e] for
   the per-request paths, the batch index for the prepared path) so the
   per-request callers pass [Simulator.step]/[step_frozen] directly and
   allocate no thunk (r11 patrols this path). *)
let ingest_step t e play x =
  let t0 = now_ns () in
  let prev =
    if t.sanitize then begin
      (* capture scalars: the stepper's cost record is mutated in place *)
      let p = Simulator.stepper_result t.stepper in
      Some (p.Simulator.cost.Cost.comm, p.Simulator.cost.Cost.mig, p.Simulator.max_load)
    end
    else None
  in
  let comm, moved = play t.stepper x in
  t.digest <- Checkpoint.digest_add t.digest ~pos:t.pos e;
  t.pos <- t.pos + 1;
  let r = Simulator.stepper_result t.stepper in
  (match prev with
  | Some (prev_comm, prev_mig, prev_max) ->
      check_step_invariants t ~step:(t.pos - 1) ~comm ~prev_comm ~prev_mig
        ~prev_max r
  | None -> ());
  let latency_ns = now_ns () - t0 in
  Metrics.observe t.metrics ~latency_ns ~comm ~moved
    ~max_load:r.Simulator.max_load;
  {
    step = t.pos - 1;
    edge = e;
    comm;
    moved;
    cum_comm = r.Simulator.cost.Cost.comm;
    cum_mig = r.Simulator.cost.Cost.mig;
    max_load = r.Simulator.max_load;
    latency_ns;
  }

(* --- solver-budget degradation ---------------------------------------- *)

let set_solver_budget t ~budget_ns ~cooloff =
  if budget_ns < 0 then invalid_arg "Engine.set_solver_budget: negative budget";
  if budget_ns > 0 && cooloff < 1 then
    invalid_arg "Engine.set_solver_budget: cooloff < 1";
  t.budget_ns <- budget_ns;
  t.cooloff <- cooloff

let degrading t = t.degraded_left > 0

(* Bookkeeping for one request just served frozen: count it, and count
   the re-promotion when the cooloff ends. *)
let note_frozen t =
  Metrics.note_degraded t.metrics;
  t.degraded_left <- t.degraded_left - 1;
  if t.degraded_left = 0 then Metrics.note_recovered t.metrics

(* Was this request slow enough to degrade?  The effective time is the
   measured solve latency plus any injected stall — virtual, so the fault
   path stays deterministic and fast. *)
let check_budget t ~latency_ns ~step =
  if t.budget_ns > 0 then begin
    let eff =
      latency_ns
      + (if Fault.armed () then Fault.solver_stall_ns ~step else 0)
    in
    if eff > t.budget_ns then t.degraded_left <- t.cooloff
  end

let ingest t e =
  if Fault.armed () then Fault.crash_check ~step:t.pos;
  if t.degraded_left > 0 then begin
    let d = ingest_step t e Simulator.step_frozen e in
    note_frozen t;
    d
  end
  else begin
    let d = ingest_step t e Simulator.step e in
    check_budget t ~latency_ns:d.latency_ns ~step:d.step;
    d
  end

let ingest_batch t edges =
  let b = Array.length edges in
  if b = 0 then [||]
  else if t.degraded_left > 0 || Fault.armed () then begin
    (* per-request path: frozen spans, crash points and injected stalls
       land on exact request indices (the batched pre-solve would consult
       the solver for requests that must be served frozen) *)
    let out = ref [] in
    Array.iter (fun e -> out := ingest t e :: !out) edges;
    Array.of_list (List.rev !out)
  end
  else begin
    let play = Simulator.prepare t.stepper edges in
    (* one play wrapper per batch, indexed by j — not one thunk per request *)
    let play_step _stepper j = play j in
    let ds = Array.mapi (fun j e -> ingest_step t e play_step j) edges in
    (* degradation triggers are evaluated at batch boundaries — a prepared
       batch's [play j] must run for every j in order, so the switch to the
       frozen path applies from the next batch on *)
    if t.budget_ns > 0 then begin
      let worst = ref 0 in
      Array.iter (fun d -> if d.latency_ns > !worst then worst := d.latency_ns) ds;
      if !worst > t.budget_ns then t.degraded_left <- t.cooloff
    end;
    ds
  end

(* The no-decision fast path: same accounting, digest and
   checkpoint-observable state as [ingest_batch], but two clock reads and
   one aggregate metrics record per *batch* instead of per request, and no
   decision records allocated — the dominant per-request overheads once
   the solver itself is cheap (see the bench ingest section).  The
   sanitizer needs per-request before/after scalars, so sanitizing
   engines keep the checked path. *)
let ingest_batch_quiet t edges =
  let b = Array.length edges in
  if b = 0 then ()
  else if
    t.sanitize || t.degraded_left > 0
    || (Fault.armed () && Fault.request_fault_pending ~lo:t.pos ~hi:(t.pos + b))
  then
    (* blocks that need per-request treatment — sanitizing engines, an
       active degradation cooloff, or a counted fault landing inside this
       block — take the checked path; an armed-but-quiet fault plan costs
       this one range check per block (gated <2% in the bench) *)
    ignore (ingest_batch t edges)
  else begin
    let prev = Simulator.stepper_result t.stepper in
    (* capture scalars: the stepper's cost record is mutated in place *)
    let prev_comm = prev.Simulator.cost.Cost.comm
    and prev_mig = prev.Simulator.cost.Cost.mig in
    let t0 = now_ns () in
    let play = Simulator.prepare t.stepper edges in
    for j = 0 to b - 1 do
      ignore (play j)
    done;
    (* a call-free loop, so the digest stays in a register *)
    let d = ref t.digest in
    for j = 0 to b - 1 do
      d := Checkpoint.digest_add !d ~pos:(t.pos + j) edges.(j)
    done;
    t.digest <- !d;
    t.pos <- t.pos + b;
    let latency_ns = now_ns () - t0 in
    let r = Simulator.stepper_result t.stepper in
    Metrics.observe_batch t.metrics ~count:b ~latency_ns
      ~comm:(r.Simulator.cost.Cost.comm - prev_comm)
      ~mig:(r.Simulator.cost.Cost.mig - prev_mig)
      ~max_load:r.Simulator.max_load;
    if t.budget_ns > 0 && latency_ns / b > t.budget_ns then
      t.degraded_left <- t.cooloff
  end

let pos t = t.pos
let alg_name t = t.alg_name
let epsilon t = t.epsilon
let seed t = t.seed
let instance t = t.inst
let result t = Simulator.stepper_result t.stepper
let assignment t = Assignment.to_array (t.online.Online.assignment ())
let online t = t.online
let metrics t = t.metrics

let checkpoint t =
  let r = result t in
  {
    Checkpoint.alg = t.alg_name;
    epsilon = t.epsilon;
    seed = t.seed;
    n = t.inst.Instance.n;
    ell = t.inst.Instance.ell;
    k = t.inst.Instance.k;
    initial = Array.copy t.inst.Instance.initial;
    pos = t.pos;
    digest = t.digest;
    comm = r.Simulator.cost.Cost.comm;
    mig = r.Simulator.cost.Cost.mig;
    max_load = r.Simulator.max_load;
    violations = r.Simulator.capacity_violations;
    assignment = assignment t;
    alg_state = Some (t.snapshot ());
    degraded_left = t.degraded_left;
  }

(* The costs are carried over from the checkpoint, so what a restore can
   get wrong is the state: the restored assignment must be the stored
   one, and its load must not exceed the stored running maximum. *)
let verify_against (ckpt : Checkpoint.t) t =
  let r = result t in
  if r.Simulator.max_load <> ckpt.Checkpoint.max_load then
    failwith
      (Printf.sprintf
         "Engine.resume: restored %s has load %d above the checkpoint's \
          running maximum %d"
         ckpt.Checkpoint.alg r.Simulator.max_load ckpt.Checkpoint.max_load);
  let same_assignment a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b
  in
  if not (same_assignment (assignment t) ckpt.Checkpoint.assignment) then
    failwith
      (Printf.sprintf
         "Engine.resume: assignment of %s diverged from checkpoint after \
          state restore"
         ckpt.Checkpoint.alg)

let resume ?(strict = true) ?sanitize (ckpt : Checkpoint.t) =
  let alg = ckpt.Checkpoint.alg in
  let inst =
    Instance.make ~n:ckpt.Checkpoint.n ~ell:ckpt.Checkpoint.ell
      ~k:ckpt.Checkpoint.k ~initial:(Array.copy ckpt.Checkpoint.initial) ()
  in
  let spec = Registry.find alg in
  let online =
    spec.Registry.build ~epsilon:ckpt.Checkpoint.epsilon
      ~seed:ckpt.Checkpoint.seed inst
  in
  (match (ckpt.Checkpoint.alg_state, online.Online.restore) with
  | Some state, Some restore -> (
      match restore state with
      | () -> ()
      | exception Invalid_argument msg ->
          failwith
            (Printf.sprintf "Engine.resume: state of %s rejected: %s" alg msg))
  | None, _ -> failwith "Engine.resume: checkpoint carries no algorithm state"
  | Some _, None ->
      invalid_arg
        (Printf.sprintf "Engine.resume: algorithm %s has no restore hook" alg));
  (* O(state), no replay.  The stepper created below snapshots the
     restored assignment as its baseline, so restore-time moves are not
     billed, exactly like construction-time moves. *)
  let t =
    make_engine ~strict ?sanitize ~epsilon:ckpt.Checkpoint.epsilon ~alg
      ~seed:ckpt.Checkpoint.seed
      ~cost:{ Cost.comm = ckpt.Checkpoint.comm; Cost.mig = ckpt.Checkpoint.mig }
      ~max_load:ckpt.Checkpoint.max_load
      ~violations:ckpt.Checkpoint.violations ~steps_done:ckpt.Checkpoint.pos
      ~digest:ckpt.Checkpoint.digest inst online
  in
  verify_against ckpt t;
  t.degraded_left <- ckpt.Checkpoint.degraded_left;
  t

(* Decision records are the serve stream's per-request output, so they are
   written by hand rather than through Printf: the record's exact length
   is known up front, and its fixed key fragments and decimal digits go
   straight into the one buffer that becomes the string.  The bytes are
   those of the %d format (pinned by a qcheck in test_serve). *)

(* Characters in the decimal form of [n], sign included.  Digits are
   counted on the non-positive side, where min_int has a negation. *)
let int_width n =
  let rec count w v = if v > -10 then w else count (w + 1) (v / 10) in
  if n < 0 then count 2 n else count 1 (-n)

(* Write [n], whose decimal form is [w] characters wide, at [pos];
   returns the position after it. *)
let put_int b pos w n =
  let rec digits i v =
    let q = v / 10 in
    Bytes.set b i (Char.unsafe_chr (48 + (10 * q) - v));
    if q < 0 then digits (i - 1) q
  in
  digits (pos + w - 1) (if n < 0 then n else -n);
  if n < 0 then Bytes.set b pos '-';
  pos + w

let put_key b pos key =
  Bytes.blit_string key 0 b pos (String.length key);
  pos + String.length key

(* the record's bytes without its eight values *)
let decision_fixed_len =
  String.length
    "{\"type\":\"decision\",\"step\":,\"edge\":,\"comm\":,\"mig\":,\"cum_comm\":,\
     \"cum_mig\":,\"max_load\":,\"latency_ns\":}"

let decision_to_json d =
  let w_step = int_width d.step and w_edge = int_width d.edge in
  let w_comm = int_width d.comm and w_moved = int_width d.moved in
  let w_cum_comm = int_width d.cum_comm and w_cum_mig = int_width d.cum_mig in
  let w_max_load = int_width d.max_load in
  let w_latency = int_width d.latency_ns in
  let b =
    Bytes.create
      (decision_fixed_len + w_step + w_edge + w_comm + w_moved + w_cum_comm
     + w_cum_mig + w_max_load + w_latency)
  in
  let pos = put_key b 0 "{\"type\":\"decision\",\"step\":" in
  let pos = put_int b pos w_step d.step in
  let pos = put_key b pos ",\"edge\":" in
  let pos = put_int b pos w_edge d.edge in
  let pos = put_key b pos ",\"comm\":" in
  let pos = put_int b pos w_comm d.comm in
  let pos = put_key b pos ",\"mig\":" in
  let pos = put_int b pos w_moved d.moved in
  let pos = put_key b pos ",\"cum_comm\":" in
  let pos = put_int b pos w_cum_comm d.cum_comm in
  let pos = put_key b pos ",\"cum_mig\":" in
  let pos = put_int b pos w_cum_mig d.cum_mig in
  let pos = put_key b pos ",\"max_load\":" in
  let pos = put_int b pos w_max_load d.max_load in
  let pos = put_key b pos ",\"latency_ns\":" in
  let pos = put_int b pos w_latency d.latency_ns in
  Bytes.set b pos '}';
  Bytes.unsafe_to_string b

let result_to_json t =
  let r = result t in
  Printf.sprintf
    "{\"type\":\"result\",\"alg\":\"%s\",\"requests\":%d,\"comm\":%d,\
     \"mig\":%d,\"total\":%d,\"max_load\":%d,\"violations\":%d}"
    t.alg_name r.Simulator.steps r.Simulator.cost.Cost.comm
    r.Simulator.cost.Cost.mig
    (Cost.total r.Simulator.cost)
    r.Simulator.max_load r.Simulator.capacity_violations
