(** A monotonic nanosecond clock ([clock_gettime(CLOCK_MONOTONIC)]).

    Readings only ever increase, whatever happens to the wall clock, so
    differences of two readings are true elapsed times.  The origin is
    unspecified (typically boot): use it for intervals, never for dates. *)

external now_ns : unit -> int = "rbgp_clock_monotonic_ns" [@@noalloc]
(** Nanoseconds since an unspecified fixed origin; non-decreasing. *)
