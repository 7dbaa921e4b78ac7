(** Deterministic fault injection for the serve stack.

    A process-global, seeded fault plan drives simulated crashes, torn
    or bit-flipped checkpoint writes, transient read errors and solver
    stalls at exact, reproducible points.  When no plan is configured
    every hook is a no-op behind one reference read, so production
    serving pays nothing (the bench gates the armed-but-quiet overhead
    at <2% of quiet-path throughput).

    Spec grammar (comma-separated; see the .ml header for details):
    [crash@N], [ckpt-tear@N[:K]], [ckpt-flip@N], [read-flip@N],
    [read-eintr:P], [read-eagain:P], [short-read:P],
    [solver-stall@N[:NS]], [seed=K].

    Counted ([@N]) faults fire exactly once per process and then
    disarm; probabilistic faults draw from an [Rng] seeded by the plan,
    so a fixed plan over a fixed call sequence yields an identical
    fault schedule. *)

exception Injected_crash of string
(** Raised by [crash_check] and by the checkpoint tear path to model a
    process kill.  Supervisors catch it (and only handlers that name it
    — lint rule r9 flags catch-alls around hook sites). *)

val configure : string -> unit
(** Parse a spec and arm the plan ([""] disarms).  Raises
    [Invalid_argument] on malformed specs. *)

val configure_from_env : unit -> unit
(** [configure] from [RBGP_FAULTS] if set; otherwise leave untouched. *)

val disable : unit -> unit
val armed : unit -> bool

(** {1 Hooks} — called by the serve stack; all no-ops when disarmed. *)

val crash_check : step:int -> unit
(** Raises [Injected_crash] if the plan kills at request [step]. *)

val request_fault_pending : lo:int -> hi:int -> bool
(** Does a counted per-request fault (crash or stall) land in
    [\[lo, hi)]?  Lets the quiet batch path check once per block and
    fall back to per-request serving for the block that contains one. *)

val solver_stall_ns : step:int -> int
(** Injected solver slowdown (ns) for request [step]; 0 otherwise.
    The stall is virtual: it is added to the latency the solver-budget
    supervisor sees, keeping degradation deterministic and tests fast. *)

val checkpoint_write_plan : len:int -> [ `Full | `Tear of int | `Flip of int ]
(** Called once per checkpoint write with the serialized length.
    [`Tear keep]: only the first [keep] bytes reach the final path and
    the writer must then raise [Injected_crash].  [`Flip bit]: flip
    that bit of the serialized record before an otherwise-normal
    write.  [`Full]: write normally. *)

val before_read : unit -> unit
(** May raise [Unix.Unix_error (EINTR | EAGAIN)] per the plan's
    probabilities.  [Source] calls it inside the same
    [Durable.retry_transient] thunk as the real read. *)

val mangle_batch : int array -> got:int -> bool
(** Corrupt the planned delivered-request ordinal if it falls in this
    batch of [got] requests; returns [true] if a value was mangled (the
    caller must then re-validate the batch). *)
