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

   The chunk size [max 1 (n / (8 d))] keeps ~8 chunks per participant;
   it only steers scheduling, never results. *)

let override = Atomic.make None

let set_domains d =
  (match d with
  | Some d when d < 1 -> invalid_arg "Pool.set_domains: need at least 1 domain"
  | _ -> ());
  Atomic.set override d

(* RBGP_DOMAINS is read once, at program start; [set_domains] still
   wins over it. *)
let default_domains =
  match
    Option.bind (Sys.getenv_opt "RBGP_DOMAINS") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some d when d >= 1 -> d
  | _ -> Stdlib.max 1 (Domain.recommended_domain_count ())

let domains () =
  match Atomic.get override with Some d -> d | None -> default_domains

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

let map ?domains:d f items =
  let n = Array.length items in
  let d = match d with Some d -> Stdlib.max 1 d | None -> domains () in
  if d = 1 || n <= 1 || not (Atomic.compare_and_set slot_busy false true)
  then begin
    Atomic.set last_parallel false;
    Array.map f items
  end
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
        Mutex.lock mutex;
        let job =
          {
            id =
              (incr next_job_id;
               !next_job_id);
            run;
            cursor = Atomic.make 0;
            total = n;
            chunk = Stdlib.max 1 (n / (d * 8));
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
        | None -> ());
        Array.map
          (function
            | Some v -> v
            | None ->
                (* unreachable without an error, which was re-raised above *)
                assert false)
          results)

let map_list ?domains f items =
  Array.to_list (map ?domains f (Array.of_list items))
