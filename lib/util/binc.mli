(** Minimal binary codec: LEB128 varints over buffers, strings and
    channels.

    Shared by the framed binary trace format ({!Rbgp_workloads.Trace_codec})
    and the serving layer's checkpoint snapshots
    ({!Rbgp_serve.Checkpoint}): both need compact, versioned,
    endian-independent integer framing without pulling in a serialization
    dependency.  Unsigned varints are standard LEB128 (7 bits per byte,
    high bit = continuation); signed values go through the zigzag map
    [(n lsl 1) lxor (n asr 62)] first so small negatives stay short. *)

val add_varint : Buffer.t -> int -> unit
(** Append an unsigned LEB128 varint.  Requires the value [>= 0]. *)

val add_zigzag : Buffer.t -> int -> unit
(** Append a signed integer, zigzag-mapped then LEB128-encoded. *)

val add_string : Buffer.t -> string -> unit
(** Append a length-prefixed (varint) byte string. *)

val add_int_array : Buffer.t -> int array -> unit
(** Append a varint length followed by each element zigzag-encoded. *)

val add_int64 : Buffer.t -> int64 -> unit
(** Append 8 bytes, little-endian. *)

val add_float : Buffer.t -> float -> unit
(** Append the exact IEEE-754 bits of a float as an {!add_int64}. *)

val add_counts : Buffer.t -> float array -> unit
(** Append a vector of whole-number floats (task or request counts kept
    as floats) as a varint length and one varint per entry. *)

type reader
(** A cursor over an immutable byte string. *)

val reader : ?pos:int -> string -> reader
val read_varint : reader -> int
val read_zigzag : reader -> int
val read_string : reader -> string
val read_int_array : reader -> int array
val read_int64 : reader -> int64
val read_float : reader -> float

val read_counts : reader -> float array -> unit
(** Read an {!add_counts} vector into [dst]; raises [Invalid_argument]
    unless it has [dst]'s length and no negative entry. *)

val at_end : reader -> bool

val reader_pos : reader -> int
(** Current byte offset of the cursor — used by checkpoint decoding to
    reject trailing garbage and to report absolute offsets in errors. *)

(** All [read_*] functions raise [Invalid_argument] on truncated input or
    varints longer than 63 bits; truncation errors name the absolute byte
    offset at which input ran out. *)

(** {2 Block decoding over byte regions}

    The zero-copy counterpart of the channel readers: a {!region} is a
    cursor over a [Bigarray]-backed byte range (typically an [mmap]ed
    trace file, see {!Rbgp_workloads.Trace_codec}), and {!decode_varints}
    decodes whole blocks of varints out of it in one tight loop — no
    per-byte closure calls, no intermediate copies. *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type region
(** A mutable cursor over an immutable byte range. *)

val region : ?pos:int -> bigbytes -> region
(** View the whole array (from [pos], default 0) as a region. *)

val region_of_string : string -> region
(** Copies the string into a fresh bigarray — for tests and small inputs;
    the mmap path never goes through this. *)

val region_pos : region -> int
val region_at_end : region -> bool

val region_read_string : region -> int -> string
(** Read exactly [len] bytes; raises [Invalid_argument] when fewer remain. *)

val region_read_varint : region -> int
(** One varint at the cursor.  Raises [Invalid_argument] on a varint that
    runs past the region end (a torn frame — the region is the whole
    input, so there is no more data coming) or past 63 bits. *)

val region_read_zigzag : region -> int

val decode_varints : region -> int array -> limit:int -> int
(** [decode_varints r out ~limit] bulk-decodes up to [limit] varints into
    [out.(0 ..)], returning how many were decoded and advancing the cursor
    past them.  Returns [0] only at a clean end of region.  A torn varint
    at the region end is left unconsumed while the completed frames before
    it are delivered; the {e next} call then raises [Invalid_argument] —
    exactly the complete-frames-then-raise behaviour of the channel
    reader, so the two paths report corruption at the same request index.
    Raises [Invalid_argument] on [limit] outside [0 .. length out]. *)

val output_varint : out_channel -> int -> unit
val output_zigzag : out_channel -> int -> unit

val input_varint : in_channel -> int
(** Raises [End_of_file] when the channel is exhausted {e before the first
    byte}; a truncation mid-varint raises [Invalid_argument] instead, so a
    clean end-of-stream is distinguishable from a corrupt tail. *)

exception Torn of int
(** [Torn k]: the channel ended inside a varint after [k] of its bytes. *)

val input_varint_opt : in_channel -> int option
(** [None] at clean end-of-stream; mid-varint truncation raises {!Torn},
    so a caller can name the byte where the torn varint began.  A varint
    of more than nine bytes raises [Invalid_argument], as
    {!decode_varints} does. *)

val input_zigzag : in_channel -> int
