external now_ns : unit -> int = "rbgp_clock_monotonic_ns" [@@noalloc]
