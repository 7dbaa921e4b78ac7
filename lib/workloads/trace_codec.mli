(** Framed binary trace format, the streaming counterpart of {!Trace_io}.

    Layout (all integers LEB128 varints, see {!Rbgp_util.Binc}):

    {v
    magic   "RBGT"            4 bytes
    version varint            format version, currently 1
    n       varint            ring size every edge is validated against
    ell     varint            server count hint (0 = unspecified)
    seed    zigzag varint     provenance seed (0 = unspecified)
    body    frame*            one frame per request, until end of stream
    v}

    A version-1 frame is a single varint: the requested edge index in
    [\[0, n)].  Framing is self-delimiting, so readers consume requests one
    at a time without knowing the trace length in advance — [rbgp serve]
    reads from a pipe this way — and a clean end-of-stream is
    distinguishable from a torn frame (truncation raises).

    Writers emit the current version; readers accept exactly the versions
    they know.  All decoding errors raise [Invalid_argument] naming the
    path (or "<channel>" for raw channels). *)

val magic : string
(** ["RBGT"]. *)

type header = { version : int; n : int; ell : int; seed : int }

val output_header : out_channel -> n:int -> ell:int -> seed:int -> unit
val input_header : ?path:string -> in_channel -> header

val output_request : out_channel -> int -> unit

val input_request_opt :
  ?path:string -> ?base:int -> in_channel -> n:int -> int option
(** Next framed request, validated against [n]; [None] at clean
    end-of-stream.  A torn frame raises [Invalid_argument] naming the
    byte where it began, as {!decode_requests_into} does.  [base]
    (default [0]) is [pos_in ic] at the stream's first byte, so that
    offsets count stream bytes; on a pipe it is [-1]. *)

(** {2 Zero-copy region path}

    The mmap counterpart of the channel readers: {!map} maps a trace file
    read-only into a {!Rbgp_util.Binc.region}, {!header_of_region} parses
    the frame header out of it, and {!decode_requests_into} bulk-decodes
    and validates whole blocks of requests — the hot loop behind
    [Source.next_batch].  Decode errors and torn tails raise
    [Invalid_argument] naming the path, frame for frame like the channel
    readers (the qcheck parity suite in [test_util] pins this down). *)

val can_map : path:string -> bool
(** Is the file a regular, non-empty file — i.e. will {!map} work?  Pipes,
    sockets, devices and empty files answer [false] (a zero-length mmap is
    rejected by the kernel; the channel path reports the empty file as
    "missing magic" instead). *)

val map : ?path:string -> string -> Rbgp_util.Binc.region
(** [map path] maps the file read-only ([Unix.map_file] behind a private
    mapping) and returns a region over its bytes; the file descriptor is
    closed before returning.  Raises [Invalid_argument] (naming [?path],
    default the file path) when the file cannot be mapped — pipes and
    other non-regular files — and [Sys_error "<path>: <reason>"], as
    [open_in_bin] does, when it cannot be opened at all. *)

val header_of_region : ?path:string -> Rbgp_util.Binc.region -> header

val decode_requests_into :
  ?path:string -> Rbgp_util.Binc.region -> n:int -> int array -> limit:int -> int
(** Bulk-decode up to [limit] requests into the array, validating each
    against [n]; returns how many were decoded, [0] only at a clean end
    of region.  The valid requests before a bad frame (a torn tail, a
    varint over 9 bytes, an edge out of range) are delivered and the
    cursor stays on that frame, so the next call and every later one
    raise, with {!input_request_opt}'s message naming the same byte. *)

val write :
  path:string -> n:int -> ?ell:int -> ?seed:int -> int array -> unit
