(** Plain-text trace files: one edge index per line.

    Lets real traces (or traces produced by one tool) drive any algorithm
    in this repository, and lets generated traces be exported for external
    analysis.  Lines starting with ['#'] and blank lines are ignored on
    input; [save] writes a provenance header comment.  For the compact,
    streaming binary format see {!Trace_codec}. *)

val save : path:string -> ?comment:string -> int array -> unit

val input_request_opt :
  ?path:string -> ?lineno:int ref -> in_channel -> n:int -> int option
(** Pull one request: skips blank/comment lines, validates the edge
    against the ring size [n], [None] at end-of-stream.  A malformed or
    out-of-range line raises [Invalid_argument] naming [path] and the
    line number.  [Rbgp_serve.Source] reads text traces, files and
    stdin alike, this way.  Pass the same [lineno] ref across calls to
    keep error messages' line numbers accurate. *)
