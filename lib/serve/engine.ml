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
  stepper : Simulator.stepper;
  cost : Cost.t;  (* the stepper's live cumulative costs *)
  metrics : Metrics.t;
  mutable pos : int;
  mutable digest : int;  (* Checkpoint.digest_add over the served edges *)
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

let make_engine ~epsilon ~alg ~seed ?(cost = Cost.zero ()) ?max_load
    ?violations ?(steps_done = 0) ?(digest = Checkpoint.digest_empty)
    (inst : Instance.t) (online : Online.t) =
  let stepper =
    Simulator.stepper ~cost ?max_load ?violations ~steps_done inst online
  in
  {
    inst;
    alg_name = alg;
    epsilon;
    seed;
    online;
    stepper;
    cost;
    metrics = Metrics.create ();
    pos = steps_done;
    digest;
    budget_ns = 0;
    cooloff = 64;
    degraded_left = 0;
  }

let create ?(epsilon = 0.5) ~alg ~seed inst =
  let spec = Registry.find alg in
  let online = spec.Registry.build ~epsilon ~seed inst in
  make_engine ~epsilon ~alg ~seed inst online

(* One request's bookkeeping around [play] (the accounting step):
   identical for the served and the frozen path, so every decision field
   except the wall-clock [latency_ns] is byte-identical between them.
   [play] is [Simulator.advance] or [Simulator.advance_frozen], passed
   directly so no thunk is allocated (r11 patrols this path).  The step's
   charges are the growth of the stepper's cumulative costs, read as
   ints, so the decision record is the request's only allocation. *)
let ingest_step t e play =
  let t0 = now_ns () in
  (* scalars: the stepper's cost record is mutated in place *)
  let prev_comm = t.cost.Cost.comm and prev_mig = t.cost.Cost.mig in
  play t.stepper e;
  let step = t.pos in
  t.digest <- Checkpoint.digest_add t.digest ~pos:step e;
  t.pos <- step + 1;
  let comm = t.cost.Cost.comm - prev_comm in
  let latency_ns = now_ns () - t0 in
  let moved = t.cost.Cost.mig - prev_mig in
  let max_load = Simulator.max_load t.stepper in
  Metrics.observe t.metrics ~latency_ns ~comm ~moved ~max_load;
  {
    step;
    edge = e;
    comm;
    moved;
    cum_comm = t.cost.Cost.comm;
    cum_mig = t.cost.Cost.mig;
    max_load;
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
    let d = ingest_step t e Simulator.advance_frozen in
    note_frozen t;
    d
  end
  else begin
    let d = ingest_step t e Simulator.advance in
    check_budget t ~latency_ns:d.latency_ns ~step:d.step;
    d
  end

(* The no-decision block path: same accounting, digest and
   checkpoint-observable state as [ingest] on each edge, but the whole
   block is billed by one Simulator loop and folded into the digest by
   one call, with two clock reads and one aggregate metrics record per
   block and no decision records — the dominant per-request overheads
   once the solver itself is cheap.  The block is the first [len] edges
   of the array, so the socket path bills its reused edge buffer in
   place. *)
let ingest_prefix_quiet t edges ~len:b =
  if b < 0 || b > Array.length edges then
    invalid_arg "Engine.ingest_prefix_quiet: bad length";
  if b = 0 then ()
  else if
    t.degraded_left > 0
    || (Fault.armed () && Fault.request_fault_pending ~lo:t.pos ~hi:(t.pos + b))
  then
    (* blocks that need per-request treatment — an active degradation
       cooloff, or a counted fault landing inside this block — go through
       [ingest] per request; an armed-but-quiet fault plan costs this one
       range check per block (gated <2% in the bench) *)
    for j = 0 to b - 1 do
      ignore (ingest t edges.(j))
    done
  else begin
    (* capture scalars: the stepper's cost record is mutated in place *)
    let prev_comm = t.cost.Cost.comm and prev_mig = t.cost.Cost.mig in
    let t0 = now_ns () in
    Simulator.advance_block t.stepper edges b;
    t.digest <- Checkpoint.digest_block t.digest ~pos:t.pos edges b;
    t.pos <- t.pos + b;
    let latency_ns = now_ns () - t0 in
    Metrics.observe_batch t.metrics ~count:b ~latency_ns
      ~comm:(t.cost.Cost.comm - prev_comm)
      ~mig:(t.cost.Cost.mig - prev_mig)
      ~max_load:(Simulator.max_load t.stepper);
    if t.budget_ns > 0 && latency_ns / b > t.budget_ns then
      t.degraded_left <- t.cooloff
  end

let ingest_batch_quiet t edges =
  ingest_prefix_quiet t edges ~len:(Array.length edges)

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
    alg_state = Some (t.online.Online.snapshot ());
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

let resume (ckpt : Checkpoint.t) =
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
  (match ckpt.Checkpoint.alg_state with
  | Some state -> (
      match online.Online.restore state with
      | () -> ()
      | exception Invalid_argument msg ->
          failwith
            (Printf.sprintf "Engine.resume: state of %s rejected: %s" alg msg))
  | None -> failwith "Engine.resume: checkpoint carries no algorithm state");
  (* O(state), no replay.  The stepper created below snapshots the
     restored assignment as its baseline, so restore-time moves are not
     billed, exactly like construction-time moves. *)
  let t =
    make_engine ~epsilon:ckpt.Checkpoint.epsilon ~alg
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
   those of the %d format (pinned by a qcheck in test_serve).  Every
   helper is a top-level function, so a record allocates its buffer and
   nothing else. *)

(* Digits in the decimal form of [v <= 0], by comparison: counting on the
   non-positive side, where min_int has a negation. *)
let digits_nonpos v =
  if v > -100_000 then
    if v > -10 then 1
    else if v > -100 then 2
    else if v > -1_000 then 3
    else if v > -10_000 then 4
    else 5
  else if v > -10_000_000_000 then
    if v > -1_000_000 then 6
    else if v > -10_000_000 then 7
    else if v > -100_000_000 then 8
    else if v > -1_000_000_000 then 9
    else 10
  else if v > -100_000_000_000 then 11
  else if v > -1_000_000_000_000 then 12
  else if v > -10_000_000_000_000 then 13
  else if v > -100_000_000_000_000 then 14
  else if v > -1_000_000_000_000_000 then 15
  else if v > -10_000_000_000_000_000 then 16
  else if v > -100_000_000_000_000_000 then 17
  else if v > -1_000_000_000_000_000_000 then 18
  else 19

(* Characters in the decimal form of [n], sign included. *)
let int_width n = if n < 0 then 1 + digits_nonpos n else digits_nonpos (-n)

(* "00" .. "99": the two digits of [i] at [2i] and [2i + 1]. *)
let digit_pairs =
  String.init 200 (fun j ->
      Char.chr (48 + if j land 1 = 0 then j / 20 else j / 2 mod 10))

(* Write the digits of [v <= 0]'s magnitude so that the last one lands
   at [i]: two digits per division, from [digit_pairs]. *)
let rec put_digits b i v =
  if v <= -100 then begin
    let q = v / 100 in
    let r = 2 * ((100 * q) - v) in
    Bytes.set b i digit_pairs.[r + 1];
    Bytes.set b (i - 1) digit_pairs.[r];
    put_digits b (i - 2) q
  end
  else if v <= -10 then begin
    Bytes.set b i digit_pairs.[1 - (2 * v)];
    Bytes.set b (i - 1) digit_pairs.[-2 * v]
  end
  else Bytes.set b i (Char.unsafe_chr (48 - v))

(* Write [n], whose decimal form is [w] characters wide, at [pos];
   returns the position after it. *)
let put_int b pos w n =
  put_digits b (pos + w - 1) (if n < 0 then n else -n);
  if n < 0 then Bytes.set b pos '-';
  pos + w

(* A fixed key fragment as little-endian 8-byte words, padded to whole
   words.  [put_key] stores whole words, so a key's last word may run up
   to 7 bytes past the key.  Those bytes are rewritten by what follows,
   which is written later and always at least as long: a value (one
   digit or more) and the next key, or the last value and the closing
   brace, which the 2-byte spill of [",\"latency_ns\":"] needs. *)
type key = { words : int64 array; len : int }

let key s =
  let len = String.length s in
  let padded = s ^ String.make (-len land 7) ' ' in
  {
    words =
      Array.init (String.length padded / 8) (fun i ->
          String.get_int64_le padded (8 * i));
    len;
  }

let put_key b pos k =
  for i = 0 to Array.length k.words - 1 do
    Bytes.set_int64_le b (pos + (8 * i)) k.words.(i)
  done;
  pos + k.len

let k_step = key "{\"type\":\"decision\",\"step\":"
let k_edge = key ",\"edge\":"
let k_comm = key ",\"comm\":"
let k_mig = key ",\"mig\":"
let k_cum_comm = key ",\"cum_comm\":"
let k_cum_mig = key ",\"cum_mig\":"
let k_max_load = key ",\"max_load\":"
let k_latency = key ",\"latency_ns\":"

(* the record's bytes without its eight values *)
let decision_fixed_len =
  k_step.len + k_edge.len + k_comm.len + k_mig.len + k_cum_comm.len
  + k_cum_mig.len + k_max_load.len + k_latency.len + 1

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
  let pos = put_key b 0 k_step in
  let pos = put_int b pos w_step d.step in
  let pos = put_key b pos k_edge in
  let pos = put_int b pos w_edge d.edge in
  let pos = put_key b pos k_comm in
  let pos = put_int b pos w_comm d.comm in
  let pos = put_key b pos k_mig in
  let pos = put_int b pos w_moved d.moved in
  let pos = put_key b pos k_cum_comm in
  let pos = put_int b pos w_cum_comm d.cum_comm in
  let pos = put_key b pos k_cum_mig in
  let pos = put_int b pos w_cum_mig d.cum_mig in
  let pos = put_key b pos k_max_load in
  let pos = put_int b pos w_max_load d.max_load in
  let pos = put_key b pos k_latency in
  let pos = put_int b pos w_latency d.latency_ns in
  Bytes.set b pos '}';
  Bytes.unsafe_to_string b

let result_json ~alg ~requests ~comm ~mig ~max_load ~violations =
  Printf.sprintf
    "{\"type\":\"result\",\"alg\":\"%s\",\"requests\":%d,\"comm\":%d,\
     \"mig\":%d,\"total\":%d,\"max_load\":%d,\"violations\":%d}"
    alg requests comm mig (comm + mig) max_load violations

let result_to_json t =
  let r = result t in
  result_json ~alg:t.alg_name ~requests:r.Simulator.steps
    ~comm:r.Simulator.cost.Cost.comm ~mig:r.Simulator.cost.Cost.mig
    ~max_load:r.Simulator.max_load
    ~violations:r.Simulator.capacity_violations
