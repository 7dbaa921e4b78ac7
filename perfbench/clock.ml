(* Nanosecond CLOCK_MONOTONIC reads through bechamel's [@@noalloc] stub:
   unlike Unix.gettimeofday it resolves a ~100 ns call and never steps
   backwards. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
