(** Pull-based request sources for the serving loop: a file, a pipe or
    stdin, in either the text ({!Rbgp_workloads.Trace_io}) or framed
    binary ({!Rbgp_workloads.Trace_codec}) format.

    A source yields a block of validated edges per {!next_batch} call
    and reports a clean end-of-stream, so the serving loop never
    materializes the trace.

    The format of a file opened with [`Auto] is sniffed once, from the
    bytes that are then served (see {!open_file}); a pipe, like stdin,
    reads as text unless the binary format is asked for.

    Regular binary trace files are mmap'ed by default (see {!open_file}):
    requests are block-decoded straight out of the mapped bytes with no
    per-byte closure calls, no read syscalls and no intermediate copies —
    the zero-copy ingest path behind the BENCH_5 numbers.  Pipes, stdin
    and text traces use the buffered channel readers; both backends
    produce identical request streams and identical errors (the qcheck
    parity suite in [test_util] covers the decoders frame for frame).

    Every pull runs under {!Rbgp_util.Durable.retry_transient}, so
    transient [EINTR]/[EAGAIN] conditions — real, or injected through an
    armed {!Fault} plan's [before_read] hook in the same retried thunk —
    are absorbed with bounded attempts.  Decode errors (torn frames,
    out-of-range edges, injected frame corruption) raise
    [Invalid_argument] naming the path and the absolute byte offset. *)

type t

type format = [ `Auto | `Text | `Binary ]

type mmap = [ `Auto | `On | `Off ]
(** [`Auto] maps regular, non-empty binary files and falls back to the
    channel reader otherwise; [`On] requires the mmap path for a binary
    trace (raises when the file cannot be mapped); [`Off] always streams
    through a channel. *)

val of_channel :
  ?path:string ->
  ?owns_channel:bool ->
  format:[ `Text | `Binary ] ->
  n:int ->
  in_channel ->
  t
(** Wrap an already-open channel (e.g. stdin).  For [`Binary] the framed
    header is read and validated against [n] immediately; both a header
    parse failure and an [n] mismatch raise [Invalid_argument] naming the
    source's path (default ["<channel>"]), and close the channel first
    when [owns_channel] is [true] (default [false]: the caller keeps
    responsibility for a channel it handed in).  [`Auto] is not available
    here: distinguishing the formats requires a peek the channel cannot
    take back. *)

val open_file : ?format:format -> ?mmap:mmap -> n:int -> string -> t
(** Open a trace file.  [`Auto] (default) detects the binary magic, once,
    in the bytes the source then serves: a regular, non-empty file is
    mapped and its magic read from the region (under [mmap:`Off], the
    first bytes of the channel the source keeps are read and sought
    back).  Any other path (a pipe or FIFO, an empty file) cannot give
    bytes back, so [`Auto] reads it as text, as stdin does; pass
    [`Binary] for a framed stream.  With [mmap:`Auto] (default) a regular
    binary file is mapped read-only and served through the block decoder.
    A missing file raises [Sys_error "<path>: <reason>"] in every mode.
    Construction failures never leak the underlying descriptor.  The
    caller must {!close}. *)

val next_batch : t -> int array -> limit:int -> int
(** [next_batch t dst ~limit] fills [dst.(0 ..)] with up to [limit]
    requests, each validated against [n], and returns how many were
    delivered; [0] only at a clean end-of-stream.  On the mmap backend
    this is one block decode; on a channel it pulls request by request
    (and therefore blocks until [limit] requests arrive or the stream
    ends).  On both, the complete frames before a torn tail are
    delivered first, and the next call and every call after it raise
    [Invalid_argument] naming the byte where the torn frame began.  A
    channel treats any decode error that way.  Raises
    [Invalid_argument] (naming the path) on malformed input, and when
    [limit] is outside [0 .. Array.length dst]. *)

val header : t -> Rbgp_workloads.Trace_codec.header option
(** The binary header, when the source is framed. *)

val kind : t -> [ `Mmap | `Channel ]
(** Which backend this source resolved to (e.g. for logging and tests). *)

val consume_prefix : t -> Checkpoint.t -> unit
(** [consume_prefix t ckpt] pulls the [ckpt.pos] requests a checkpoint
    has already served from a source that replays the stream from the
    beginning, and checks their {!Checkpoint.digest_add} digest against
    the checkpoint's.  Raises [Failure] naming the position and both
    digests when they differ, or when the source ends first. *)

val close : t -> unit
(** Closes the underlying channel if this source owns it (i.e. was opened
    by {!open_file}); no-op otherwise.  Mapped regions are reclaimed by
    the GC. *)
