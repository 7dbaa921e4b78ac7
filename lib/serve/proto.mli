(** RBGN/v1: the framed binary wire protocol of the networked serving
    tier.

    Every frame is [stream varint · op varint · payload-length varint ·
    payload bytes].  The stream id routes the frame to a tenant bound by
    a prior {!Open_stream} on the same connection (stream [0] is the
    connection-control stream: hello, shutdown, drain notices).  Payloads
    are themselves varint-packed with {!Rbgp_util.Binc}, the same codec
    the RBGT/v1 trace format and RBGC checkpoints use.

    Bytes move through one type, the {!queue}: a connection and a client
    each hold one for input and one for output.  Socket reads deliver
    arbitrary byte boundaries, so reading parks torn frames — the
    discipline the mmap/channel {!Source} readers already follow:
    complete frames are delivered, an incomplete tail is retained until
    more bytes arrive, and only impossible input (varint overflow,
    oversized payload) raises.  Frames are written into a queue in
    place, by {!put_frame} and {!put_req}. *)

exception Protocol_error of string
(** Corrupt or hostile input: varint longer than 63 bits, unknown
    opcode, payload over {!max_payload}, bad hello magic.  Never raised
    for merely-incomplete input. *)

val magic : string
(** ["RBGN"] *)

val version : int

val max_payload : int
(** Hard upper bound on a frame payload (16 MiB).  A length field above
    this raises {!Protocol_error} before any allocation, so a corrupt or
    hostile length prefix cannot trigger an unbounded read. *)

(** {2 Opcodes} *)

type op =
  | Hello  (** c→s, stream 0: magic + protocol version *)
  | Open_stream  (** c→s: bind a stream id to a tenant configuration *)
  | Req  (** c→s: batch of ring requests; server replies {!Decisions} *)
  | Req_quiet  (** c→s: batch on the quiet path; server replies {!Ack} *)
  | Ckpt  (** c→s: force a durable checkpoint now *)
  | Close_stream  (** c→s: final checkpoint + release the stream id *)
  | Shutdown  (** c→s, stream 0: drain and stop the server *)
  | Opened  (** s→c: stream bound; payload carries the resume position *)
  | Decisions  (** s→c: per-request decisions for one {!Req} batch *)
  | Ack  (** s→c: aggregate totals for one {!Req_quiet} batch *)
  | Ckpt_ok  (** s→c: checkpoint durable at the carried position *)
  | Closed  (** s→c: stream released; payload carries final totals *)
  | Error_frame  (** s→c: error code + message (see error codes below) *)
  | Draining  (** s→c, stream 0: server is draining; no new opens *)

val op_to_int : op -> int
val op_of_int : int -> op
(** Raises {!Protocol_error} on an unknown opcode. *)

val op_name : op -> string

(** {2 Error codes carried by [Error_frame]} *)

val err_proto : int  (** 1 — malformed frame or payload *)

val err_unknown_stream : int  (** 2 — frame for a stream never opened *)

val err_tenant_failed : int
(** 3 — the tenant's engine died (supervised mode); re-open to resume
    from its last durable checkpoint *)

val err_config_mismatch : int
(** 4 — [Open_stream] config disagrees with the live tenant or its
    checkpoint *)

val err_draining : int  (** 5 — server is draining; no new work *)

(** {2 Frames} *)

type frame = { stream : int; op : op; payload : string }

(** {2 Byte queues} *)

type queue = private {
  mutable buf : bytes;
  mutable start : int;
  mutable len : int;
}
(** A byte stream between a peer and its reader or writer: the queued
    bytes are [buf.(start .. start+len-1)].  Writers append after them,
    moving them to the front or into a buffer twice the size first when
    they need the room; readers take bytes off the front.

    One retention rule covers every queue: once a queue is empty, a
    buffer that grew past 1 MiB for one large frame is replaced by a
    4 KiB one, so a connection or client does not keep it. *)

val queue : unit -> queue

val feed : queue -> bytes -> int -> int -> unit
(** [feed q buf off len] appends [len] bytes starting at [off]. *)

val feed_string : queue -> string -> unit

val consume : queue -> int -> unit
(** [consume q n] drops the first [n] queued bytes (those a socket write
    took), applying the retention rule when the queue empties. *)

val next : queue -> frame option
(** The next complete frame off the front, or [None] if the queued bytes
    end in a torn frame (or are empty): a torn frame is parked until
    later feeds complete it, so byte boundaries are invisible in the
    frame sequence.  Raises {!Protocol_error} on input no completion
    could repair. *)

val put_frame : queue -> stream:int -> op -> Buffer.t -> unit
(** [put_frame q ~stream op payload] appends one frame: its header
    varints, then the payload's bytes, blitted once from the buffer.
    The buffer is then emptied, and reset to its initial size if it
    held more than 1 MiB, so the caller can reuse one payload buffer for
    every frame.  Raises {!Protocol_error} on a payload over
    {!max_payload} and [Invalid_argument] on a negative stream, with the
    buffer emptied and nothing appended. *)

(** {2 Payload codecs}

    Encoders append to a [Buffer.t], the payload {!put_frame} takes;
    decoders read a payload string and raise {!Protocol_error} on
    truncated or trailing bytes. *)

val add_hello : Buffer.t -> unit
val read_hello : string -> int
(** Returns the peer's protocol version; raises on bad magic. *)

type open_payload = {
  tenant : string;  (** tenant id, [[A-Za-z0-9._-]{1,64}] *)
  alg : string;
  n : int;
  ell : int;
  epsilon : float;
  seed : int;
}

val add_open : Buffer.t -> open_payload -> unit
val read_open : string -> open_payload

(** {2 Request batches}

    The socket path's per-request bytes.  A [Req]/[Req_quiet] payload is
    the edges' varints back to back, identical to the RBGT/v1 request
    framing.  Both directions code it in one pass, the client into its
    output queue and the server into an edge array the connection
    keeps, so a steady stream of batches allocates neither a frame
    string nor an edge array per call.  The edge array is kept while it
    holds a payload of up to 64 KiB (65536 edges); what a larger batch
    grew is released by {!trim_edges} once that batch is served, so one
    16 MiB frame does not pin a 128 MB array for the lifetime of a
    connection.  The queues follow their own retention rule. *)

val put_req :
  queue -> stream:int -> op -> int array -> pos:int -> len:int -> unit
(** [put_req q ~stream op edges ~pos ~len] writes a whole request frame
    ([op] is {!Req} or {!Req_quiet}) over [len] consecutive edges from
    [pos] into the empty queue [q], in one pass: the payload varints go
    after room reserved for the header, and the header right-aligned in
    that room once the payload length is known; the queue's window
    starts at the header.  The bytes are a frame's header varints over
    the edges' [Binc] varints.  Raises [Invalid_argument] on a queue
    that still holds bytes, a bad range or a negative edge, and
    {!Protocol_error} on a payload over {!max_payload}. *)

type edge_buf = private { mutable arr : int array; mutable count : int }
(** The server's edge buffer: a decoded batch is [arr.(0 .. count-1)],
    valid until the next decode or trim. *)

val edge_buf : unit -> edge_buf

val next_req : queue -> edge_buf -> frame option
(** {!next} for the server: a [Req] or [Req_quiet] payload is decoded
    straight from the queue's window into the buffer, and its frame
    carries an empty payload string.  Other frames are delivered as by
    {!next}.  Raises {!Protocol_error} on a request payload that ends
    inside a varint or holds one over 9 bytes, with [Binc.read_varint]'s
    message at the same byte. *)

val trim_edges : edge_buf -> unit
(** Release an edge array grown for a payload of more than 64 KiB. *)

val add_opened : Buffer.t -> pos:int -> unit
val read_opened : string -> int

val add_decisions : Buffer.t -> start_pos:int -> Engine.decision array -> unit
val read_decisions : string -> int * Engine.decision array
(** Steps are reconstructed from the carried start position, so the
    per-decision wire cost is edge/comm/moved/cumulative-totals/latency
    varints only. *)

type ack_payload = {
  count : int;
  pos : int;
  cum_comm : int;
  cum_mig : int;
  ack_max_load : int;
  violations : int;
}

val add_ack : Buffer.t -> ack_payload -> unit
val read_ack : string -> ack_payload

val add_ckpt_ok : Buffer.t -> pos:int -> unit
val read_ckpt_ok : string -> int

type closed_payload = {
  closed_pos : int;
  closed_comm : int;
  closed_mig : int;
  closed_max_load : int;
  closed_violations : int;
}

val add_closed : Buffer.t -> closed_payload -> unit
val read_closed : string -> closed_payload

val add_error : Buffer.t -> code:int -> string -> unit
val read_error : string -> int * string
