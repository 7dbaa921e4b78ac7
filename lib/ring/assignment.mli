(** Mutable process-to-server assignments and their cost geometry.

    An assignment maps each process [0 .. n-1] to a server id.  The model
    charges one unit per process migration, so the distance between two
    assignments is the Hamming distance; a request on edge [(i, i+1)] costs
    one unit of communication iff the endpoints map to different servers.

    Load validation is parameterized by the resource-augmentation factor:
    online algorithms may use [alpha * k] capacity while offline comparators
    must respect [k] strictly. *)

type t

type journal = private {
  mutable buf : int array;  (** recorded process ids, in [\[0, len)] *)
  mutable len : int;  (** moves recorded since the last clear *)
}
(** A move journal: the ids of processes whose server changed since the
    journal was last cleared.  Once attached (see {!journal}), every
    effective {!set} appends the process id; redundant sets (same server)
    are not recorded.  A process that moved twice appears twice — consumers
    that need exact Hamming semantics should diff against a snapshot per
    touched id (see {!Simulator}).  The fields are readable so that a
    consumer tests for an empty journal, and walks a full one, without a
    call per request; only this module writes them. *)

val create : Instance.t -> t
(** Initialized to the instance's initial assignment. *)

val journal : t -> journal
(** Attach (idempotently) and return the assignment's journal.  Lets the
    simulator charge migrations in [O(moves)] instead of re-scanning all
    [n] processes per request. *)

val journal_clear : journal -> unit
(** Forget any recorded moves: moves made during algorithm setup, before
    simulation starts, or moves a consumer has just billed. *)

val of_array : Instance.t -> int array -> t
(** Copies the given map; validates server ids are in range (loads are not
    validated here — use {!max_load} / {!check_capacity}). *)

val copy : t -> t
(** Snapshot of the map and loads; the copy has no journal attached. *)

val n : t -> int
val server_of : t -> int -> int
val set : t -> int -> int -> unit
(** [set t p s] migrates process [p] to server [s], updating loads. *)

val load : t -> int -> int
val loads : t -> int array

val max_load : t -> int
(** O(1): the assignment maintains a load-value histogram and a cached
    maximum across every mutation, so hot-path accounting never rescans
    the [ell] servers. *)

val check_capacity : t -> augmentation:float -> bool
(** Every load at most [augmentation * k] (integer floor comparison is
    deliberately avoided: the bound is [load <= augmentation * k + 1e-9]).
    O(1) — see {!max_load}. *)

val cuts_edge : t -> int -> bool
(** Does edge [(e, e+1 mod n)] cross servers? *)

val cut_edges : t -> int list

val hamming : t -> t -> int
(** Number of processes assigned differently — the migration cost of moving
    from one assignment to the other. *)

val diff_into : t -> t -> int
(** [diff_into target scratch] copies [target] into [scratch] and returns
    their Hamming distance in one pass and no allocation — the [O(n)]
    reference the test suite checks the simulator's journal billing
    against. *)

val restore_array : t -> int array -> unit
(** [restore_array t a] moves every process to its server in [a], in place,
    through {!set} — loads stay consistent and an attached journal records
    the effective moves (checkpoint restores run before the simulator
    clears setup-time journal entries).  Validates lengths and server ids. *)

val to_array : t -> int array
val instance : t -> Instance.t
val pp : Format.formatter -> t -> unit
