(** The socket transport: a single-threaded, select-driven server
    hosting many tenant engines behind the RBGN/v1 framed protocol
    ({!Proto}), plus the matching client.

    {2 Server}

    One [select] loop owns every file descriptor: the RPC listener, the
    optional HTTP listener, and all accepted connections.  A connection
    is two {!Proto.queue}s: the input queue, where torn frames (or an
    HTTP request head) wait for their remaining bytes, and the output
    queue, where replies wait for the peer.  Replies are written into the
    output queue in place ({!Proto.put_frame}) from one payload buffer
    the connection reuses, and request batches are decoded straight from
    the input queue's window into a {!Proto.edge_buf} and served in
    place, so a steady stream of batches allocates nothing per edge.
    What one large frame grew is released once it is served: an edge
    array above 64 KiB of payload, a payload buffer above 1 MiB, and a
    queue above 1 MiB once it is empty.  One drain loop writes an output
    queue to its socket, for the server's connections and the client
    alike.  Backpressure is per connection: when a peer's queued output
    exceeds a high-water mark the server stops {e reading} from that
    peer until the queue drains below the low-water mark — a slow
    consumer throttles itself, never the other tenants.

    Graceful drain ({!begin_drain}, or a [Shutdown] frame): stop
    accepting, checkpoint and close every tenant ({!Tenant.drain}),
    notify every connection with a [Draining] frame, flush all queues,
    then stop.  {!request_drain} only sets a flag and is async-signal
    safe — CLI signal handlers use it.

    Tenant isolation: a request whose engine raises [Failure],
    [Invalid_argument], [Sys_error] or [End_of_file] (a peer's
    out-of-range edge, a capacity violation, a failed checkpoint write)
    kills that tenant alone ({!Tenant.kill}) and is answered with a
    resumable [err_tenant_failed] [Error_frame]; the server and the
    other tenants keep serving, and re-opening the stream resumes the
    tenant from its last checkpoint.

    {2 Client}

    Synchronous RPC: one in-flight request per stream, through the same
    pair of queues as a server connection: a call writes its frame into
    the output queue, drains it, and parses the reply off the input
    queue.  An optional [pump] callback runs
    whenever the client would block, which lets tests and the bench
    drive an in-process server cooperatively (no second process, no
    domain); against a real server it is simply never needed.
    {!Disconnected} surfaces connection loss so callers can reconnect
    and re-[open_stream] — the server answers with the position to
    resume from. *)

type addr = Unix_sock of string | Tcp of string * int

val parse_addr : string -> addr
(** ["unix:PATH"] or ["tcp:HOST:PORT"]; raises [Invalid_argument]
    otherwise. *)

val addr_to_string : addr -> string

(** {2 Server} *)

type server

val server : ?http:addr -> ?hwm:int -> router:Tenant.t -> addr -> server
(** Bind and listen (both sockets non-blocking, a backlog of 64; an
    existing Unix-socket path is replaced).  [hwm] is the per-connection
    output high-water mark in bytes (default 256 KiB, at least 4096; the
    low-water mark is a quarter of it).  Raises [Sys_error "listen <addr>: <reason>"] when a socket
    cannot be bound or listened on. *)

val step : ?timeout:float -> server -> bool
(** One select round: accept, read, dispatch frames, flush.  Returns
    [false] once the server has fully stopped.  [timeout] (default 0 —
    poll) bounds the select wait; EINTR counts as an empty round so
    signal-requested drains are noticed promptly. *)

val run : ?timeout:float -> server -> unit
(** [step] until stopped ([timeout] default 0.2s per round). *)

val request_drain : server -> unit
(** Async-signal-safe: ask the next [step] to {!begin_drain}. *)

val begin_drain : server -> unit
(** Checkpoint + close all tenants, notify and flush connections, stop
    accepting; [step] returns [false] once every queue is flushed. *)

val shutdown : server -> unit
(** Close every fd and unlink Unix-socket paths (idempotent; called
    automatically when a drain completes). *)

(** {2 Client} *)

exception Disconnected of string
(** The transport died (EOF, reset, refused).  Reconnect and re-open
    streams to resume. *)

exception Server_error of int * string
(** An [Error_frame] answered the call: ({!Proto} error code, message). *)

type client

val connect : ?pump:(unit -> unit) -> addr -> client
(** Dial, exchange [Hello] frames, verify magic + version.  [pump] runs
    whenever the client would block on the socket. *)

val close : client -> unit

val open_stream : client -> stream:int -> Proto.open_payload -> int
(** Bind [stream] to a tenant; returns the position to resume sending
    from (0 = fresh run).  Raises {!Server_error} (config mismatch,
    draining, failed resume) or {!Disconnected}. *)

val request :
  client -> stream:int -> int array -> pos:int -> len:int ->
  Engine.decision array
(** Serve [len] edges starting at [pos]: sends [Req], awaits
    [Decisions].  The frame is encoded in one pass into the client's
    output queue ({!Proto.put_req}) and written from there. *)

val request_quiet :
  client -> stream:int -> int array -> pos:int -> len:int ->
  Proto.ack_payload
(** Quiet path: sends [Req_quiet], encoded as by {!request}, and awaits
    [Ack]. *)

val checkpoint : client -> stream:int -> int
(** Force a durable checkpoint; returns its position. *)

val close_stream : client -> stream:int -> Proto.closed_payload

val shutdown_server : client -> unit
(** Send [Shutdown] (graceful drain) and wait for the server to close
    the connection. *)
