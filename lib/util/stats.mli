(** Small statistics toolkit for the experiment harness.

    Competitive-ratio experiments summarize many seeded runs (mean and
    standard deviation) and fit growth exponents by least squares on
    log-transformed data (e.g. "does cost/OPT grow like log^2 k or like k?").
    Everything operates on plain float arrays. *)

val mean : float array -> float

val stddev : float array -> float
(** Square root of the unbiased sample variance (n-1 denominator); 0 for
    fewer than 2 points. *)

type linfit = { slope : float; intercept : float; r2 : float }

val linear_fit : float array -> float array -> linfit
(** Ordinary least squares of y against x.  Requires equal lengths >= 2. *)

val loglog_fit : float array -> float array -> linfit
(** Least squares of [log y] against [log x]: the slope estimates the
    polynomial growth exponent.  All inputs must be positive. *)
