(** The tenant router: many independent serving engines in one process,
    each an (instance × algorithm) run with its own rolling durable
    checkpoints and its own {!Metrics}.

    A {e tenant} is identified by a client-chosen id ([[A-Za-z0-9._-]],
    at most 64 bytes) and configured by [(alg, n, ell, epsilon, seed)] —
    the engine determinism parameters.  The router owns the lifecycle:

    {v
                 Open_stream               Close_stream
       (absent) ------------> Serving --------------------> Closed
                                |  ^                          |
                 engine raised  |  | Open_stream              | Open_stream
                 (supervised)   v  |   (resume from ckpt)     v
                              Dead ----------------------> Serving
    v}

    - [Serving]: live engine.  A second [Open_stream] with the {e same}
      configuration re-binds to it at its current position (this is the
      client reconnect path); a different configuration is a
      config-mismatch error.
    - [Closed]: final checkpoint written, engine released.  Re-opening
      resumes from the newest verifiable checkpoint generation.
    - [Dead]: the engine raised mid-request under supervision.  The
      in-memory engine is discarded; re-opening resumes from the last
      durable checkpoint (or in-memory snapshot when the router has no
      checkpoint directory), replaying the verified prefix — the PR-7
      crash matrix extended to kill-anywhere-with-live-connections.

    Checkpoints roll per tenant at [dir/<id>.ckpt] via
    {!Checkpoint.write_rolling}/{!Checkpoint.read_latest} on a
    request-count cadence, plus on demand ([Ckpt] frames), at close and
    at drain. *)

type t
(** The router. *)

type tenant
(** One tenant slot.  Handles stay valid across [Dead]/re-open cycles —
    the slot, not the engine, is the identity. *)

type state = Serving | Closed | Dead of string

val create :
  ?checkpoint_dir:string ->
  ?checkpoint_every:int ->
  ?checkpoint_keep:int ->
  ?sanitize:bool ->
  unit ->
  t
(** [checkpoint_every] (default 0 = only explicit/close/drain
    checkpoints) is the rolling cadence in requests; [checkpoint_keep]
    (default 3) the generations kept.  Without [checkpoint_dir] nothing
    is durable, but close/kill still snapshot in memory so re-opening
    resumes exactly within the process lifetime. *)

val valid_id : string -> bool

val open_tenant :
  t -> Proto.open_payload -> (tenant * int, int * string) result
(** Bind (or re-bind) a tenant.  [Ok (tenant, pos)] carries the position
    to resume from: [0] for a fresh run, the checkpointed position after
    [Closed]/[Dead], the live position when re-binding a [Serving]
    tenant.  [Error (code, msg)] uses the {!Proto} error codes
    ([err_config_mismatch], [err_proto] for a bad id or unknown
    algorithm, [err_tenant_failed] when a resume attempt itself fails). *)

val serve : t -> tenant -> int array -> Engine.decision array
(** {!Engine.ingest_batch} plus the rolling-checkpoint cadence.  Raises
    [Failure] if the tenant is not [Serving]; engine exceptions (including
    {!Fault.Injected_crash}) propagate to the caller, which decides
    between {!kill} (supervised) and dying (unsupervised). *)

val serve_quiet : t -> tenant -> int array -> unit
(** {!Engine.ingest_batch_quiet} plus the same cadence. *)

val checkpoint_now : t -> tenant -> int
(** Snapshot immediately (rolling write when a directory is configured);
    returns the checkpointed position. *)

val close : t -> tenant -> Proto.closed_payload
(** Final checkpoint, release the engine, state [Closed].  Returns the
    run totals for the [Closed] frame. *)

val kill : t -> tenant -> string -> unit
(** Supervised failure: discard the engine, state [Dead reason].  The
    last durable (or in-memory) checkpoint is untouched — that is what a
    re-open resumes from. *)

val drain : t -> unit
(** Checkpoint and close every [Serving] tenant (graceful shutdown). *)

val find : t -> string -> tenant option
val tenants : t -> tenant list
(** All tenants, sorted by id — the deterministic order of every
    observability surface. *)

val id : tenant -> string
val state : tenant -> state
val config : tenant -> Proto.open_payload
val pos : tenant -> int
(** Current engine position; for [Closed]/[Dead] tenants, the position
    of the snapshot a re-open would resume from. *)

val engine : tenant -> Engine.t option
val metrics_snapshot : tenant -> Metrics.snapshot option
(** [None] only before the first open ever completes. *)

val ckpt_age_s : tenant -> float option
(** Seconds since the last completed checkpoint ([None] before the
    first) — the per-tenant staleness gauge behind the HTTP
    checkpoint-age endpoint. *)

val ckpt_path : t -> tenant -> string option
