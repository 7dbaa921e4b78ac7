(** Versioned serving snapshots: everything needed to resume a streaming
    run and to verify the resumption is exact, in O(state) bytes.

    A checkpoint captures the run's {e identity} (algorithm name, epsilon,
    rng seed, instance parameters), its {e position} (number of requests
    served, plus a running {!digest_add} digest of the served edge
    sequence), its {e accounting} (cumulative communication/migration,
    running maximum load, capacity violations), its {e state} (the
    current assignment and the algorithm's own
    {!Rbgp_ring.Online.t.snapshot} blob) and the remaining length of an
    in-flight solver-budget cooloff.  Nothing in it grows with the number
    of requests served: the size is O(n + algorithm state), and every
    algorithm has the snapshot hooks ({!Rbgp_ring.Online.make} requires
    them).

    {!Engine.resume} rebuilds the algorithm from
    [(name, epsilon, seed, instance)], hands the state blob to its
    [restore] hook and verifies the restored assignment against the stored
    one.  The digest lets a caller that re-reads the stream from the
    beginning ([rbgp resume --skip-prefix]) check that it is the stream
    the checkpoint served.

    On-disk layout (version 3): magic ["RBGC"], varint format version,
    the Binc-framed fields in record order (floats as exact IEEE-754
    bits), then a little-endian CRC-32 trailer over all preceding bytes.
    Versions 1 and 2 stored the whole served prefix for replay; they are
    rejected with a message naming their version.

    {b Durability.}  {!write} routes through
    {!Rbgp_util.Durable.atomic_write} (tmp + fsync + rename + parent-dir
    fsync), so a crash mid-write never leaves a torn file at the
    published path.  {!write_rolling} additionally keeps [keep] rolling
    generations ([path], [path.1], ...), and {!read_latest} falls back
    past torn or corrupt generations to the newest one that verifies. *)

type t = {
  alg : string;
  epsilon : float;
  seed : int;
  n : int;
  ell : int;
  k : int;
  initial : int array;
  pos : int;  (** requests served before the snapshot *)
  digest : int;
      (** {!digest_add} folded over the [pos] served edges in order, from
          {!digest_empty} *)
  comm : int;
  mig : int;
  max_load : int;
  violations : int;
  assignment : int array;  (** assignment after request [pos - 1] *)
  alg_state : string option;
      (** the algorithm's snapshot blob; always [Some] in a checkpoint
          that {!to_string} accepts or {!of_string} returns *)
  degraded_left : int;
      (** remaining frozen requests if the snapshot was taken
          mid-degradation *)
}

val digest_empty : int
(** The digest of the empty request sequence. *)

val digest_add : int -> pos:int -> int -> int
(** [digest_add d ~pos e] extends digest [d] by edge [e] served as request
    [pos] (0-based): O(1), no allocation.  Changing any single request of
    a sequence always changes its digest. *)

val digest_block : int -> pos:int -> int array -> int -> int
(** [digest_block d ~pos edges len] folds {!digest_add} over
    [edges.(0)] .. [edges.(len - 1)] served as requests [pos] ..
    [pos + len - 1], in one call and no allocation. *)

val write : path:string -> t -> unit
(** Atomic durable write via {!Rbgp_util.Durable.atomic_write}. *)

val write_rolling : path:string -> keep:int -> t -> unit
(** [write_rolling ~path ~keep t] rotates [path -> path.1 -> ...]
    keeping at most [keep] generations, then {!write}s [t] to [path].
    Rotation happens first, so dying between the two steps leaves
    [path.1] as the newest (complete) generation. *)

val read : path:string -> t
(** Raises [Invalid_argument] naming the path on bad magic, unsupported
    version, CRC mismatch or a torn record. *)

type recovery = {
  ckpt : t;
  generation : int;  (** 0 = [path] itself, g = [path.g] *)
  skipped : (string * string) list;
      (** generations that existed but failed verification, newest
          first, with the failure message *)
}

val read_latest : ?generations:int -> path:string -> unit -> recovery
(** Scan [path], [path.1], ... (up to [generations], default 8) and
    return the newest generation that decodes and verifies, recording
    the ones skipped over.  Raises [Invalid_argument] when none does. *)

val verify : path:string -> (t, string) result
(** Full check — magic, version, CRC, field decode, internal
    consistency — as a [result] for the [rbgp checkpoint verify]
    subcommand. *)

val to_string : t -> string
(** Serialize.  Raises [Invalid_argument] when [alg_state] is [None]. *)

val of_string : ?path:string -> string -> t
(** Raises [Invalid_argument] naming [path] (default ["<string>"]) on bad
    magic, a version other than {!version} (older ones by name), CRC
    mismatch or a torn record. *)

val to_json : t -> string
(** Inspection record for [rbgp checkpoint]: all scalar fields, the
    digest in hex and the size of the algorithm state blob. *)
