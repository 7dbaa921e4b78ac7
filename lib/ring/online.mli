(** The interface every online algorithm in this repository implements.

    An algorithm owns a mutable {!Assignment.t}; the {!Simulator} charges
    communication by inspecting the assignment *before* calling [serve] and
    charges migration from the assignment's move journal afterwards, per
    the model of Section 2 (serve-then-optionally-migrate).  Algorithms
    must therefore perform all reactions to a request inside [serve], move
    processes only through {!Assignment.set} (or functions built on it),
    and never hand out their assignment for mutation: the simulator reads
    the assignment before a request from a shadow it syncs from the
    journal after each [serve], so a move made anywhere else goes unseen
    until the next step that moves something.

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
          [Some].  The simulator drains it after every request that
          moved something, to charge migration in [O(moves + 1)]. *)
  snapshot : unit -> string;
      (** Serialize the algorithm's complete mutable state (including its
          assignment, rng words and solver state) to an opaque, versioned
          byte string whose size does not grow with the number of requests
          served: the format version [1] as a varint, then what the
          algorithm's [save] appends.  Contract: after [restore s] on a
          {e freshly built} instance of the same algorithm on the same
          problem instance (and seed), all future [serve] behaviour is
          identical to the instance [s] was taken from, and
          [snapshot ()] returns [s] byte for byte. *)
  restore : string -> unit;
      (** Inverse of [snapshot]: check the version, hand the rest to the
          algorithm's [load] and refuse trailing bytes.  Raises
          [Invalid_argument] on a byte string this algorithm version
          cannot decode. *)
}

val make :
  name:string ->
  augmentation:float ->
  assignment:(unit -> Assignment.t) ->
  serve:(int -> unit) ->
  save:(Buffer.t -> unit) ->
  load:(Rbgp_util.Binc.reader -> unit) ->
  t
(** Builds an algorithm.  [save] appends the algorithm's whole online
    state to a snapshot, and [load] reads it back into a freshly built
    instance, raising [Invalid_argument] on malformed input; [make] wraps
    them in the shared envelope of [snapshot] and [restore].  It calls
    [assignment ()] once to attach the assignment's move journal, so every
    later {!Assignment.set} on it is journaled. *)
