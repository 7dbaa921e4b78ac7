(** Deterministic, splittable pseudo-random number generation.

    All randomized algorithms in this repository draw exclusively from this
    module so that every experiment is reproducible from a single integer
    seed.  The generator is xoshiro256++ seeded through splitmix64, which is
    the standard recommendation for initializing xoshiro state.  [split]
    derives an independent stream, used to give each online algorithm, each
    workload generator and each interval-local sub-algorithm its own stream
    so that adding draws in one component does not perturb another.

    The state is the four 64-bit xoshiro words in one 32-byte buffer, which
    a draw reads and writes unboxed: {!int}, {!bits53} and {!bool}
    allocate nothing, {!float} and {!bits64} only their boxed result. *)

type t

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val split : t -> t
(** [split t] returns a fresh generator whose stream is independent of
    [t]'s future output.  Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the exact current state (same future outputs). *)

val save : Buffer.t -> t -> unit
(** Append the four xoshiro256++ state words (32 bytes, each as
    {!Binc.add_int64} writes it: little-endian). *)

val load : Binc.reader -> t -> unit
(** Overwrite [t] in place with state words written by {!save}, so every
    holder of [t] continues the saved stream.  Raises [Invalid_argument]
    on truncated input or the (unreachable) all-zero state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0].
    Uses rejection sampling on the low 62 bits of {!bits64} outputs, so
    the result is exactly uniform. *)

val float : t -> float
(** Uniform float in [\[0, 1)], using 53 bits of randomness: exactly
    [float_of_int (bits53 t) *. 0x1p-53]. *)

val bits53 : t -> int
(** The 53 random bits behind {!float}, as an int in [\[0, 2{^53})]: the
    same draw, without the boxed float a cross-module {!float} call
    returns.  A caller compares it against a scaled threshold and
    converts only when it needs the float. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) process, for [0 < p <= 1]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate). *)
