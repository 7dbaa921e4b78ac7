(** The Clustering procedure (Section 4.2).

    Consumes the cut-edge events of the {!Slicing} procedure, maintains the
    slices those cut edges induce on the ring, and groups slices into
    clusters:

    - for every color (server of the *initial* assignment) there is one
      persistent {e color cluster}; a slice that is 3/4-monochromatic for
      color [c] always belongs to it (Observation 4.11);
    - any other slice forms a {e singleton cluster}, except that a slice
      whose majority color is [c] stays in the color-[c] cluster if its
      previous version was already there (the hysteresis rule that bounds
      the monochromatic cost, Lemma 4.19).

    Because distinct intervals' cut edges may coincide, the cut set is kept
    as a multiset; slice structure changes only when an edge's count
    crosses zero.  A cut-edge move is decomposed into the two primitive
    slice operations (split at the new position, merge at the old), which
    generalizes the paper's move/merge operations to the coinciding-cut
    case without changing costs.

    Cost counters ([move], [merge], [mono]) follow Section 4.5.2 and are
    diagnostics: the physical migrations are whatever the process-to-server
    map implies, and the simulator charges those. *)

type kind = Color of int | Singleton

type cluster = {
  cid : int;
  kind : kind;
  mutable size : int;  (** total processes in the cluster's slices *)
  mutable server : int;  (** maintained by the Scheduling procedure *)
}

type t

val create : Rbgp_ring.Instance.t -> t
(** Slices = maximal monochromatic runs of the initial assignment, each in
    its color's cluster; color cluster [c] starts on server [c]. *)

val apply_event : t -> Slicing.event -> unit

val clusters : t -> cluster list
(** All color clusters plus the live (non-empty) singletons. *)

val assignment_into : t -> int array -> unit
(** Write the process-to-server map implied by
    slice -> cluster -> server. *)

val slices : t -> (Rbgp_ring.Segment.t * cluster) list
val cut_edges : t -> int list
(** Distinct cut positions currently present. *)

val move_cost : t -> int
val merge_cost : t -> int
val mono_cost : t -> int

val check_consistency : t -> (unit, string) result
(** Structural self-check: slices partition the ring, sizes and cluster
    sizes agree, multiset counts match live cuts.  Used by tests. *)

val save : Buffer.t -> t -> unit
(** Append the procedure's whole state: the cut multiset, every
    registered cluster (by cid, with kind, size and server), the slices
    with their cluster ids, the id counters and the costs.  O(n). *)

val load : Rbgp_util.Binc.reader -> t -> unit
(** Read a {!save} into a freshly created instance on the same problem
    instance.  Raises [Invalid_argument] on malformed input; callers
    should then run {!check_consistency}. *)
