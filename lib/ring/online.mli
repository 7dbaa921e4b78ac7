(** The interface every online algorithm in this repository implements.

    An algorithm owns a mutable {!Assignment.t}; the {!Simulator} charges
    communication by inspecting the assignment *before* calling [serve] and
    charges migration from the assignment's move journal afterwards, per
    the model of Section 2 (serve-then-optionally-migrate).  Algorithms
    must therefore perform all reactions to a request inside [serve], move
    processes only through {!Assignment.set} (or functions built on it),
    and never hand out their assignment for mutation.

    [augmentation] is the capacity factor the algorithm claims
    (e.g. [2 + eps] for the dynamic-model algorithm, [3 + eps] for the
    static-model one, [1.0] for offline-feasible baselines); the simulator
    verifies it after every request. *)

type t = {
  name : string;
  augmentation : float;
  assignment : unit -> Assignment.t;
      (** Current assignment.  Callers must treat it as read-only.

          {b Contract}: this must return a {e live view} of the algorithm's
          one mutable assignment — the same [Assignment.t] value on every
          call, mutated in place by [serve] — {e not} a copy.  The simulator
          relies on this: it takes the handle and its journal once per
          stepper, so a fresh copy per call would silently decouple cost
          accounting from the algorithm's real state. *)
  serve : int -> unit;
      (** React to a request on ring edge [(e, e+1 mod n)]: optionally
          migrate processes. *)
  journal : Assignment.journal option;
      (** The move journal of the algorithm's assignment
          ({!Assignment.journal}), attached by {!make} and therefore always
          [Some].  The simulator drains it after every request to charge
          migration in [O(moves + 1)]. *)
  snapshot : (unit -> string) option;
      (** Serialize the algorithm's complete mutable state (including its
          assignment, rng words and solver state) to an opaque, versioned
          byte string whose size does not grow with the number of requests
          served.  Contract: after [restore s] on a {e freshly built}
          instance of the same algorithm on the same problem instance (and
          seed), all future [serve] behaviour is identical to the instance
          [s] was taken from, and [snapshot ()] returns [s] byte for byte.
          Every algorithm in this library implements it (see
          {!Rbgp_serve.Checkpoint}); one built with {!make} alone has
          none, and the serving engine refuses it. *)
  restore : (string -> unit) option;
      (** Inverse of [snapshot]; raises [Invalid_argument] on a byte
          string this algorithm version cannot decode, including one with
          trailing bytes. *)
  batch : (int array -> int -> unit) option;
      (** Optional batched request path, the hook behind interval-sharded
          parallel serving.  [batch edges] pre-computes the algorithm's
          decisions for the whole batch — possibly in parallel across
          independent sub-instances — and returns an [apply] function;
          [apply j] then performs {e exactly} the observable mutations
          (assignment updates, journal entries) that [serve edges.(j)]
          would have performed, and must be called in order
          [j = 0, 1, ...].  Contract: for every batch decomposition of a
          request sequence, interleaving [apply j] with arbitrary reads of
          the assignment is indistinguishable from calling [serve] request
          by request.  Algorithms whose per-request decisions depend on
          global state that [apply] cannot reproduce must leave this
          [None]. *)
}

val make :
  name:string ->
  augmentation:float ->
  assignment:(unit -> Assignment.t) ->
  serve:(int -> unit) ->
  t
(** Builds an algorithm without snapshot hooks or a batched path.  It
    calls [assignment ()] once to attach the assignment's move journal, so
    every later {!Assignment.set} on it is journaled. *)

val with_state : snapshot:(unit -> string) -> restore:(string -> unit) -> t -> t
(** [with_state ~snapshot ~restore t] declares that [t] supports explicit
    state checkpointing (see the field contracts above). *)

val with_batch : (int array -> int -> unit) -> t -> t
(** [with_batch b t] declares that [t] supports the batched request path
    (see the [batch] field contract above). *)
