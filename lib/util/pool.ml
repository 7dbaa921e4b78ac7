(* Persistent domain pool.

   PR-1's pool spawned [d - 1] fresh domains on every [map]; for quick-mode
   experiments the spawn cost (several ms per domain: runtime registration,
   minor-heap setup) dwarfed the work and parallel runs *lost* to sequential
   ones.  This version spawns worker domains once, keeps them parked on a
   condition variable, and feeds them jobs through a single published-job
   slot.  A job is claimed chunk by chunk off a shared atomic cursor, so
   scheduling is dynamic but the result layout is positional and therefore
   deterministic; the only cross-domain traffic inside a job is the cursor
   and the first-error cell.

   Chunk size ("grain") is tunable: [set_grain] / [RBGP_GRAIN] force a fixed
   grain.  Without a forced grain the pool is cost-aware: callers may tag a
   [map] with a [~family] label, the pool keeps an EWMA of the measured
   ns/item per family, and uses it to (a) route jobs whose estimated total
   work is below a cutoff straight to the sequential path (parallel dispatch
   would cost more than it saves) and (b) size chunks so each trip to the
   cursor carries roughly [target_chunk_ns] of work.  With no estimate the
   old default [max 1 (n / (8 d))] keeps ~8 chunks per participant.  The
   clock only steers scheduling, never results. *)

let override = Atomic.make None

let set_domains d =
  (match d with
  | Some d when d < 1 -> invalid_arg "Pool.set_domains: need at least 1 domain"
  | _ -> ());
  Atomic.set override d

(* The environment knobs are read once, at program start: [map] consults
   them per call, and a per-call getenv would allocate on the serving hot
   path.  The [set_*] overrides still win over them. *)
let env_value name parse =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> parse (String.trim s)

let positive_env name =
  env_value name (fun s ->
      match int_of_string_opt s with Some d when d >= 1 -> Some d | _ -> None)

let default_domains =
  match positive_env "RBGP_DOMAINS" with
  | Some d -> d
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

let domains () =
  match Atomic.get override with Some d -> d | None -> default_domains

let grain_override = Atomic.make None

let set_grain g =
  (match g with
  | Some g when g < 1 -> invalid_arg "Pool.set_grain: need a grain of at least 1"
  | _ -> ());
  Atomic.set grain_override g

let env_grain = positive_env "RBGP_GRAIN"

let grain () =
  match Atomic.get grain_override with Some g -> Some g | None -> env_grain

(* --- measured per-item cost, by job family --------------------------- *)

(* EWMA of observed ns/item keyed by the caller-supplied family label.
   Sequential runs measure exactly; parallel runs scale wall time by
   [min (participants, cores)] — the effective parallelism — so the
   estimate approximates sequential CPU cost per item.  Scaling by raw
   participant count would over-estimate by the oversubscription factor
   on a machine with fewer cores than domains, and the resulting
   feedback loop (parallel run -> inflated estimate -> stays parallel)
   could pin a genuinely tiny job to the parallel path forever. *)
let ewma_alpha = 0.3
let cost_mutex = Mutex.create ()
let cost_table : (string, float) Hashtbl.t = Hashtbl.create 16

let estimated_cost_ns family =
  Mutex.lock cost_mutex;
  let r = Hashtbl.find_opt cost_table family in
  Mutex.unlock cost_mutex;
  r

let reset_estimates () =
  Mutex.lock cost_mutex;
  Hashtbl.reset cost_table;
  Mutex.unlock cost_mutex

let record_cost family ns_per_item =
  Mutex.lock cost_mutex;
  let v =
    match Hashtbl.find_opt cost_table family with
    | None -> ns_per_item
    | Some prev -> prev +. (ewma_alpha *. (ns_per_item -. prev))
  in
  Hashtbl.replace cost_table family v;
  Mutex.unlock cost_mutex

(* Jobs whose estimated total work is below this go sequential: waking
   parked workers, cursor traffic and the join handshake cost tens of
   microseconds, so a sub-cutoff job loses by going parallel. *)
let default_cutoff_ns = 200_000.
let cutoff_override = Atomic.make None

let set_sequential_cutoff c =
  (match c with
  | Some c when not (c > 0.) ->
      invalid_arg "Pool.set_sequential_cutoff: need a positive cutoff"
  | _ -> ());
  Atomic.set cutoff_override c

let env_cutoff_ns =
  let positive s =
    match float_of_string_opt s with Some c when c > 0. -> Some c | _ -> None
  in
  Option.value ~default:default_cutoff_ns
    (env_value "RBGP_SEQ_CUTOFF_NS" positive)

let sequential_cutoff_ns () =
  match Atomic.get cutoff_override with Some c -> c | None -> env_cutoff_ns

(* Aim for chunks carrying about this much work, so cursor round-trips are
   amortized on cheap items while expensive items still load-balance. *)
let target_chunk_ns = 100_000.

let chunk_size ?est ~n ~d () =
  match grain () with
  | Some g -> g
  | None -> (
      match est with
      | Some c when c > 0. ->
          let by_cost = int_of_float (Float.ceil (target_chunk_ns /. c)) in
          Stdlib.max 1 (Stdlib.min (Stdlib.max 1 (n / (d * 2))) by_cost)
      | _ -> Stdlib.max 1 (n / (d * 8)))

let now_ns () = Unix.gettimeofday () *. 1e9
let last_parallel = Atomic.make false
let last_map_parallel () = Atomic.get last_parallel

(* --- the persistent worker pool ------------------------------------- *)

(* A job hands out [0, total) in [chunk]-sized slices via [cursor]; [run]
   processes one slice.  [participants] counts domains currently executing
   slices (including the submitter); the submitter publishes the job, works
   on it itself, then waits until every participant has drained.  Workers
   that wake up after the cursor is exhausted join, find nothing, and leave
   — harmless.  [max_workers] caps how many pool workers may join so a
   [map ~domains:d] uses at most [d - 1] of them even when more are alive. *)
type job = {
  id : int;
  run : int -> int -> unit; (* run lo hi: process items [lo, hi) *)
  cursor : int Atomic.t;
  total : int;
  chunk : int;
  max_workers : int;
  mutable joined : int; (* workers admitted; guarded by [mutex] *)
  mutable participants : int; (* domains inside [drain]; guarded by [mutex] *)
}

let mutex = Mutex.create ()
let work_available = Condition.create ()
let job_done = Condition.create ()
let current_job : job option ref = ref None
let quitting = ref false
let workers : unit Domain.t list ref = ref []
let worker_count = ref 0
let next_job_id = ref 0

(* a worker (or the submitter) pulls slices until the cursor runs dry *)
let drain job =
  let continue = ref true in
  while !continue do
    let lo = Atomic.fetch_and_add job.cursor job.chunk in
    if lo >= job.total then continue := false
    else job.run lo (Stdlib.min job.total (lo + job.chunk))
  done

let worker_loop () =
  let last_seen = ref (-1) in
  let running = ref true in
  while !running do
    Mutex.lock mutex;
    let claimed = ref None in
    while
      !claimed = None && not !quitting
      &&
      match !current_job with
      | Some j when j.id <> !last_seen && j.joined < j.max_workers ->
          claimed := Some j;
          false
      | _ -> true
    do
      Condition.wait work_available mutex
    done;
    (match !claimed with
    | Some j ->
        j.joined <- j.joined + 1;
        j.participants <- j.participants + 1;
        last_seen := j.id;
        Mutex.unlock mutex;
        drain j;
        Mutex.lock mutex;
        j.participants <- j.participants - 1;
        if j.participants = 0 then Condition.broadcast job_done;
        Mutex.unlock mutex
    | None ->
        (* the wait predicate only falls through without a claim when
           [shutdown] is in progress *)
        running := false;
        Mutex.unlock mutex)
  done

(* make sure at least [w] workers are alive; workers persist until
   [shutdown] (or process exit) *)
let ensure_workers w =
  Mutex.lock mutex;
  while !worker_count < w do
    workers := Domain.spawn worker_loop :: !workers;
    incr worker_count
  done;
  Mutex.unlock mutex

let shutdown () =
  Mutex.lock mutex;
  quitting := true;
  Condition.broadcast work_available;
  let to_join = !workers in
  workers := [];
  worker_count := 0;
  Mutex.unlock mutex;
  List.iter Domain.join to_join;
  Mutex.lock mutex;
  quitting := false;
  Mutex.unlock mutex

let () = at_exit shutdown

let warmup ?domains:d () =
  let d = match d with Some d -> Stdlib.max 1 d | None -> domains () in
  ensure_workers (d - 1)

(* Keep the error of the smallest input index, as a sequential loop would
   raise it first. *)
let record_error cell i exn bt =
  let rec loop () =
    let prev = Atomic.get cell in
    let keep = match prev with None -> true | Some (j, _, _) -> i < j in
    if keep && not (Atomic.compare_and_set cell prev (Some (i, exn, bt))) then
      loop ()
  in
  loop ()

(* A nested [map] (from inside a worker, or from [f] during an outer map on
   the submitting domain) would wait for the busy job slot that its own
   caller holds — deadlock.  One job in flight at a time; everyone else
   degrades to the sequential path, which is always correct. *)
let slot_busy = Atomic.make false

let map ?domains:d ?family f items =
  let n = Array.length items in
  let d = match d with Some d -> Stdlib.max 1 d | None -> domains () in
  let est =
    match family with None -> None | Some fam -> estimated_cost_ns fam
  in
  (* a forced grain disables the cost heuristic entirely *)
  let small_job =
    match (grain (), est) with
    | None, Some c -> c *. float_of_int n < sequential_cutoff_ns ()
    | _ -> false
  in
  let run_sequential () =
    Atomic.set last_parallel false;
    match family with
    | None -> Array.map f items
    | Some fam ->
        let t0 = now_ns () in
        let r = Array.map f items in
        if n > 0 then record_cost fam ((now_ns () -. t0) /. float_of_int n);
        r
  in
  if
    d = 1 || n <= 1 || small_job
    || not (Atomic.compare_and_set slot_busy false true)
  then run_sequential ()
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set slot_busy false)
      (fun () ->
        Atomic.set last_parallel true;
        let results = Array.make n None in
        let error = Atomic.make None in
        let run lo hi =
          for i = lo to hi - 1 do
            if Atomic.get error = None then
              try results.(i) <- Some (f items.(i))
              with e -> record_error error i e (Printexc.get_raw_backtrace ())
          done
        in
        ensure_workers (d - 1);
        let t0 = now_ns () in
        Mutex.lock mutex;
        let job =
          {
            id =
              (incr next_job_id;
               !next_job_id);
            run;
            cursor = Atomic.make 0;
            total = n;
            chunk = chunk_size ?est ~n ~d ();
            max_workers = d - 1;
            joined = 0;
            participants = 1 (* the submitter *);
          }
        in
        current_job := Some job;
        Condition.broadcast work_available;
        Mutex.unlock mutex;
        drain job;
        Mutex.lock mutex;
        job.participants <- job.participants - 1;
        while job.participants > 0 do
          Condition.wait job_done mutex
        done;
        current_job := None;
        Mutex.unlock mutex;
        (match Atomic.get error with
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None ->
            (match family with
            | Some fam ->
                let wall = now_ns () -. t0 in
                let cores = Domain.recommended_domain_count () in
                let cpus = float_of_int (min (job.joined + 1) cores) in
                record_cost fam (wall *. cpus /. float_of_int n)
            | None -> ()));
        Array.map
          (function
            | Some v -> v
            | None ->
                (* unreachable without an error, which was re-raised above *)
                assert false)
          results)

let map_list ?domains ?family f items =
  Array.to_list (map ?domains ?family f (Array.of_list items))

let map_seeded ?domains ?family ~rng f items =
  let tasks = Array.map (fun x -> (Rng.split rng, x)) items in
  map ?domains ?family (fun (child, x) -> f child x) tasks
