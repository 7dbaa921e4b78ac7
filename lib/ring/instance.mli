(** Problem instances of dynamic balanced graph partitioning on a ring.

    An instance fixes the number of processes [n], the number of servers
    [ell], the server capacity [k] (so [n <= ell * k]), and the initial
    assignment of processes to servers.  Processes are named [0 .. n-1] and
    all position arithmetic is modulo [n]; the communication pattern is the
    ring: request [e] means processes [e] and [e+1 mod n] communicate.

    The paper's canonical initial layout places processes in consecutive
    blocks of size [k] on servers [0 .. ell-1]; alternative initial layouts
    (needed for tests and adversarial setups) can be supplied explicitly. *)

type t = private {
  n : int;  (** number of processes *)
  ell : int;  (** number of servers *)
  k : int;  (** capacity of each server *)
  initial : int array;  (** initial server of each process; length [n] *)
}

val make : n:int -> ell:int -> k:int -> ?initial:int array -> unit -> t
(** Validates [0 < n <= ell*k], that [initial] (when given) has length [n],
    server ids in range, and initial loads at most [k].  Default initial
    layout: process [i] on server [i / k]. *)

val blocks : n:int -> ell:int -> t
(** Convenience: [make ~n ~ell ~k:(n / ell)] requiring [ell] divides [n] —
    the paper's setting [k = n / ell] with fully loaded servers. *)

val initial_cut_edges : t -> int list
(** Edges [e] with [initial.(e) <> initial.(e+1 mod n)] in increasing
    order — the initial cut edges that seed the slicing procedure. *)

val pp : Format.formatter -> t -> unit
