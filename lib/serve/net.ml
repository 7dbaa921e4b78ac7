type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  match String.index_opt s ':' with
  | Some i when String.equal (String.sub s 0 i) "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if String.length path = 0 then invalid_arg "Net.parse_addr: empty path";
      Unix_sock path
  | Some i when String.equal (String.sub s 0 i) "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          (match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Tcp (host, p)
          | _ -> invalid_arg "Net.parse_addr: bad port")
      | None -> invalid_arg "Net.parse_addr: tcp:HOST:PORT")
  | _ -> invalid_arg "Net.parse_addr: expected unix:PATH or tcp:HOST:PORT"

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

exception Disconnected of string
exception Server_error of int * string

(* The only raw socket syscalls in the serving tier live in this
   submodule; lint rule r10-net-safety flags Unix I/O calls in lib/serve
   outside it.  Every wrapper retries EINTR, surfaces would-block
   explicitly instead of looping, treats reset/broken-pipe as peer
   departure, and bounds every read by the caller's buffer. *)
module Sockio = struct
  let rec read fd buf off len =
    match Unix.read fd buf off len with
    | 0 -> `Eof
    | n -> `Did n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Would_block
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof

  let rec write fd buf off len =
    match Unix.write fd buf off len with
    | n -> `Did n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Would_block
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        `Closed

  let rec accept fd =
    match Unix.accept ~cloexec:true fd with
    | c, _ ->
        Unix.set_nonblock c;
        Some c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        None

  (* EINTR yields an empty round instead of a retry so the caller's loop
     re-checks its drain/stop flags — a signal must be able to interrupt
     a sleeping server. *)
  let select rfds wfds timeout =
    match Unix.select rfds wfds [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

  let close_fd fd =
    match Unix.close fd with
    | () -> ()
    | exception Unix.Unix_error (_, _, _) -> ()

  let unlink_quiet path =
    match Unix.unlink path with
    | () -> ()
    | exception Unix.Unix_error (_, _, _) -> ()

  let resolve host =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0 ->
            h_addr_list.(0)
        | _ | (exception Not_found) ->
            invalid_arg (Printf.sprintf "Net: cannot resolve %S" host))

  let sockaddr_of = function
    | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (resolve host, port))

  let listen_on addr backlog =
    let domain, sa = sockaddr_of addr in
    (match addr with
    | Unix_sock path -> unlink_quiet path
    | Tcp _ -> ());
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match
      (match addr with
      | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix_sock _ -> ());
      Unix.bind fd sa;
      Unix.listen fd backlog;
      Unix.set_nonblock fd
    with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
        close_fd fd;
        raise
          (Sys_error
             (Printf.sprintf "listen %s: %s" (addr_to_string addr)
                (Unix.error_message e)))

  let dial addr =
    let domain, sa = sockaddr_of addr in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    (match Unix.connect fd sa with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
        close_fd fd;
        raise
          (Disconnected
             (Printf.sprintf "connect %s: %s" (addr_to_string addr)
                (Unix.error_message e))));
    Unix.set_nonblock fd;
    fd
end

type kind = Rpc | Http

type conn = {
  fd : Unix.file_descr;
  kind : kind;
  inq : Proto.queue;  (** RPC frames, or the HTTP request head *)
  outq : Proto.queue;  (** replies not yet written *)
  payload : Buffer.t;  (** the reply being built, reused *)
  reqs : Proto.edge_buf;  (** the current request batch, decoded in place *)
  streams : (int, Tenant.tenant) Hashtbl.t;
  mutable greeted : bool;
  mutable closing : bool;  (** flush the queue, then close *)
  mutable dead : bool;  (** remove at the end of this step *)
  mutable throttled : bool;  (** above HWM: reads paused until LWM *)
}

type server = {
  router : Tenant.t;
  hwm : int;
  lwm : int;
  lfd : Unix.file_descr;
  hfd : Unix.file_descr option;
  unix_paths : string list;
  rdbuf : bytes;
  mutable conns : conn list;
  mutable draining_ : bool;
  mutable drain_req : bool;
  mutable stopped_ : bool;
  mutable closed : bool;
}

let server ?http ?(hwm = 256 * 1024) ~router addr =
  if hwm < 4096 then invalid_arg "Net.server: hwm";
  let lfd = Sockio.listen_on addr 64 in
  let hfd =
    try Option.map (fun a -> Sockio.listen_on a 16) http
    with e ->
      (* give back the RPC listener bound above *)
      Sockio.close_fd lfd;
      (match addr with Unix_sock p -> Sockio.unlink_quiet p | Tcp _ -> ());
      raise e
  in
  let unix_paths =
    List.filter_map
      (fun a ->
        match a with Some (Unix_sock p) -> Some p | Some (Tcp _) | None -> None)
      [ Some addr; http ]
  in
  {
    router;
    hwm;
    lwm = hwm / 4;
    lfd;
    hfd;
    unix_paths;
    rdbuf = Bytes.create 65536;
    conns = [];
    draining_ = false;
    drain_req = false;
    stopped_ = false;
    closed = false;
  }

let request_drain s = s.drain_req <- true

(* Queue the frame whose payload is in [conn.payload]. *)
let reply conn ~stream op = Proto.put_frame conn.outq ~stream op conn.payload

let send_error conn ~stream ~code msg =
  Proto.add_error conn.payload ~code msg;
  reply conn ~stream Proto.Error_frame

(* A request that makes the tenant's engine raise one of the named
   exceptions (a peer's out-of-range edge, a capacity violation, a failed
   checkpoint write) kills that tenant alone: its stream is answered with
   a resumable [err_tenant_failed] while the other tenants keep serving.
   Anything else is a programming error and takes the process down.  The
   batch is the one [Proto.next_req] decoded into [conn.reqs]. *)
let handle_req server conn (f : Proto.frame) tn quiet =
  let router = server.router in
  let edges = conn.reqs.Proto.arr and count = conn.reqs.Proto.count in
  (match
     if quiet then begin
       Tenant.serve_quiet router tn edges ~len:count;
       match Tenant.engine tn with
       | Some e ->
           let r = Engine.result e in
           Proto.add_ack conn.payload
             {
               Proto.count;
               pos = Engine.pos e;
               cum_comm = r.Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.comm;
               cum_mig = r.Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.mig;
               ack_max_load = r.Rbgp_ring.Simulator.max_load;
               violations = r.Rbgp_ring.Simulator.capacity_violations;
             };
           reply conn ~stream:f.stream Proto.Ack
       | None -> failwith "tenant engine vanished mid-request"
     end
     else begin
       let start_pos = Tenant.pos tn in
       let ds = Tenant.serve router tn edges ~len:count in
       Proto.add_decisions conn.payload ~start_pos ds;
       reply conn ~stream:f.stream Proto.Decisions
     end
   with
  | () -> ()
  | exception
      ((Failure _ | Invalid_argument _ | Sys_error _ | End_of_file) as e) ->
      let msg = Printexc.to_string e in
      Tenant.kill router tn msg;
      send_error conn ~stream:f.stream ~code:Proto.err_tenant_failed msg);
  Proto.trim_edges conn.reqs

let handle_frame server conn (f : Proto.frame) =
  match f.op with
  | Proto.Hello ->
      let peer_version = Proto.read_hello f.payload in
      if peer_version <> Proto.version then begin
        send_error conn ~stream:0 ~code:Proto.err_proto
          (Printf.sprintf "version %d unsupported" peer_version);
        conn.closing <- true
      end
      else begin
        conn.greeted <- true;
        Proto.add_hello conn.payload;
        reply conn ~stream:0 Proto.Hello
      end
  | _ when not conn.greeted ->
      send_error conn ~stream:0 ~code:Proto.err_proto "hello first";
      conn.closing <- true
  | Proto.Shutdown -> server.drain_req <- true
  | Proto.Open_stream -> (
      if f.stream = 0 then
        send_error conn ~stream:0 ~code:Proto.err_proto "stream 0 is control"
      else if server.draining_ then
        send_error conn ~stream:f.stream ~code:Proto.err_draining "draining"
      else
        let o = Proto.read_open f.payload in
        match Tenant.open_tenant server.router o with
        | Ok (tn, pos) ->
            Hashtbl.replace conn.streams f.stream tn;
            Proto.add_opened conn.payload ~pos;
            reply conn ~stream:f.stream Proto.Opened
        | Error (code, msg) -> send_error conn ~stream:f.stream ~code msg)
  | Proto.Req | Proto.Req_quiet | Proto.Ckpt | Proto.Close_stream -> (
      match Hashtbl.find_opt conn.streams f.stream with
      | None ->
          send_error conn ~stream:f.stream ~code:Proto.err_unknown_stream
            (Printf.sprintf "stream %d not open" f.stream)
      | Some tn -> (
          match f.op with
          | Proto.Req -> handle_req server conn f tn false
          | Proto.Req_quiet -> handle_req server conn f tn true
          | Proto.Ckpt ->
              let pos = Tenant.checkpoint_now server.router tn in
              Proto.add_ckpt_ok conn.payload ~pos;
              reply conn ~stream:f.stream Proto.Ckpt_ok
          | _ ->
              let closed = Tenant.close server.router tn in
              Hashtbl.remove conn.streams f.stream;
              Proto.add_closed conn.payload closed;
              reply conn ~stream:f.stream Proto.Closed))
  | Proto.Opened | Proto.Decisions | Proto.Ack | Proto.Ckpt_ok
  | Proto.Closed | Proto.Error_frame | Proto.Draining ->
      send_error conn ~stream:f.stream ~code:Proto.err_proto
        (Printf.sprintf "%s is a server-side opcode" (Proto.op_name f.op));
      conn.closing <- true

let rec dispatch_frames server conn =
  if not (conn.closing || conn.dead) then begin
    match Proto.next_req conn.inq conn.reqs with
    | Some f ->
        handle_frame server conn f;
        dispatch_frames server conn
    | None -> ()
  end

let ingest_rpc server conn =
  match dispatch_frames server conn with
  | () -> ()
  | exception Proto.Protocol_error msg ->
      send_error conn ~stream:0 ~code:Proto.err_proto msg;
      conn.closing <- true

(* The request head accumulates in the input queue; one response is
   queued once it is complete (or too large), then the connection
   closes. *)
let ingest_http server conn =
  let q = conn.inq in
  if q.Proto.len > Http.max_request_bytes then begin
    Proto.feed_string conn.outq
      (Http.response ~status:431 ~content_type:"text/plain" "too large\n");
    conn.closing <- true
  end
  else begin
    let req = Bytes.sub_string q.Proto.buf q.Proto.start q.Proto.len in
    if Http.request_complete req then begin
      Proto.feed_string conn.outq
        (Http.handle ~router:server.router ~draining:server.draining_ req);
      conn.closing <- true
    end
  end

let read_conn server conn =
  match Sockio.read conn.fd server.rdbuf 0 (Bytes.length server.rdbuf) with
  | `Eof -> conn.dead <- true
  | `Would_block -> ()
  | `Did n -> (
      Proto.feed conn.inq server.rdbuf 0 n;
      match conn.kind with
      | Rpc -> ingest_rpc server conn
      | Http -> ingest_http server conn)

(* Write [q] to [fd] until it is empty or the peer stops taking bytes:
   the one drain loop of the server's connections and the client. *)
let rec drain fd q =
  if q.Proto.len = 0 then `Empty
  else
    match Sockio.write fd q.Proto.buf q.Proto.start q.Proto.len with
    | `Did n ->
        Proto.consume q n;
        drain fd q
    | `Would_block -> `Blocked
    | `Closed -> `Closed

let flush_conn conn =
  match drain conn.fd conn.outq with
  | `Empty -> if conn.closing then conn.dead <- true
  | `Blocked -> ()
  | `Closed -> conn.dead <- true

let close_conn conn =
  Sockio.close_fd conn.fd;
  conn.dead <- true

let shutdown s =
  if not s.closed then begin
    s.closed <- true;
    Sockio.close_fd s.lfd;
    (match s.hfd with Some fd -> Sockio.close_fd fd | None -> ());
    List.iter close_conn s.conns;
    s.conns <- [];
    List.iter Sockio.unlink_quiet s.unix_paths;
    s.stopped_ <- true
  end

let begin_drain s =
  if not s.draining_ then begin
    s.draining_ <- true;
    s.drain_req <- false;
    Tenant.drain s.router;
    List.iter
      (fun conn ->
        (match conn.kind with
        | Rpc -> reply conn ~stream:0 Proto.Draining
        | Http -> ());
        conn.closing <- true)
      s.conns
  end

let make_conn kind fd =
  {
    fd;
    kind;
    inq = Proto.queue ();
    outq = Proto.queue ();
    payload = Buffer.create 256;
    reqs = Proto.edge_buf ();
    streams = Hashtbl.create 4;
    greeted = (match kind with Http -> true | Rpc -> false);
    closing = false;
    dead = false;
    throttled = false;
  }

let rec accept_all s kind fd =
  match Sockio.accept fd with
  | Some c ->
      s.conns <- make_conn kind c :: s.conns;
      accept_all s kind fd
  | None -> ()

let step ?(timeout = 0.0) s =
  if s.stopped_ then false
  else begin
    if s.drain_req then begin_drain s;
    (* Backpressure with hysteresis: a connection whose output queue
       crosses the high-water mark leaves the read set and only rejoins
       once the queue drains below the low-water mark — a slow reader
       throttles only itself, and the latch prevents read/flush
       flapping right at the mark. *)
    let rfds = ref [] and wfds = ref [] in
    if not s.draining_ then begin
      rfds := s.lfd :: !rfds;
      match s.hfd with Some fd -> rfds := fd :: !rfds | None -> ()
    end;
    List.iter
      (fun conn ->
        if not conn.dead then begin
          let queued = conn.outq.Proto.len in
          if conn.throttled && queued <= s.lwm then conn.throttled <- false;
          if (not conn.throttled) && queued >= s.hwm then
            conn.throttled <- true;
          if (not conn.closing) && not conn.throttled then
            rfds := conn.fd :: !rfds;
          if queued > 0 then wfds := conn.fd :: !wfds
        end)
      s.conns;
    let ready_r, ready_w = Sockio.select !rfds !wfds timeout in
    if List.memq s.lfd ready_r then accept_all s Rpc s.lfd;
    (match s.hfd with
    | Some fd -> if List.memq fd ready_r then accept_all s Http fd
    | None -> ());
    List.iter
      (fun conn ->
        if (not conn.dead) && List.memq conn.fd ready_r then
          read_conn s conn)
      s.conns;
    List.iter
      (fun conn ->
        if
          (not conn.dead)
          && (List.memq conn.fd ready_w || conn.outq.Proto.len > 0)
        then flush_conn conn)
      s.conns;
    let dead, live = List.partition (fun conn -> conn.dead) s.conns in
    List.iter (fun conn -> Sockio.close_fd conn.fd) dead;
    s.conns <- live;
    if s.draining_ && (match s.conns with [] -> true | _ :: _ -> false) then
      shutdown s;
    not s.stopped_
  end

let run ?(timeout = 0.2) s =
  let continue = ref true in
  while !continue do
    continue := step ~timeout s
  done

(* ---- client ---------------------------------------------------------- *)

type client = {
  cfd : Unix.file_descr;
  cin : Proto.queue;  (** replies, parsed off the front *)
  cout : Proto.queue;  (** the request being sent *)
  cbuf : bytes;  (** socket reads land here, then in [cin] *)
  cpayload : Buffer.t;  (** the request payload being built, reused *)
  pump : (unit -> unit) option;
  mutable cclosed : bool;
}

let op_eq a b = Proto.op_to_int a = Proto.op_to_int b

let client_wait_readable c =
  match c.pump with
  | Some pump -> pump ()
  | None -> ignore (Sockio.select [ c.cfd ] [] 1.0)

let client_wait_writable c =
  match c.pump with
  | Some pump -> pump ()
  | None -> ignore (Sockio.select [] [ c.cfd ] 1.0)

(* Block until the output queue is written. *)
let rec send c =
  match drain c.cfd c.cout with
  | `Empty -> ()
  | `Blocked ->
      client_wait_writable c;
      send c
  | `Closed -> raise (Disconnected "peer closed while writing")

(* Send the frame whose payload is in [c.cpayload]. *)
let send_frame c ~stream op =
  Proto.put_frame c.cout ~stream op c.cpayload;
  send c

let rec recv_frame c =
  match Proto.next c.cin with
  | Some f -> f
  | None -> (
      match Sockio.read c.cfd c.cbuf 0 (Bytes.length c.cbuf) with
      | `Did n ->
          Proto.feed c.cin c.cbuf 0 n;
          recv_frame c
      | `Eof -> raise (Disconnected "server closed the connection")
      | `Would_block ->
          client_wait_readable c;
          recv_frame c)

(* Synchronous RPC: exactly one request in flight, so the next frame on
   our stream is the answer.  Control-stream frames (drain notices,
   connection-level errors) are absorbed along the way. *)
let rec await c ~stream expect =
  let f = recv_frame c in
  if f.Proto.stream = stream && op_eq f.Proto.op expect then f
  else if op_eq f.Proto.op Proto.Error_frame then begin
    let code, msg = Proto.read_error f.Proto.payload in
    raise (Server_error (code, msg))
  end
  else if f.Proto.stream = 0 && op_eq f.Proto.op Proto.Draining then
    await c ~stream expect
  else
    raise
      (Proto.Protocol_error
         (Printf.sprintf "unexpected %s frame on stream %d"
            (Proto.op_name f.Proto.op) f.Proto.stream))

let connect ?pump addr =
  let fd = Sockio.dial addr in
  let c =
    {
      cfd = fd;
      cin = Proto.queue ();
      cout = Proto.queue ();
      cbuf = Bytes.create 65536;
      cpayload = Buffer.create 256;
      pump;
      cclosed = false;
    }
  in
  Proto.add_hello c.cpayload;
  send_frame c ~stream:0 Proto.Hello;
  let f = await c ~stream:0 Proto.Hello in
  let v = Proto.read_hello f.Proto.payload in
  if v <> Proto.version then
    raise
      (Proto.Protocol_error (Printf.sprintf "server speaks version %d" v));
  c

let close c =
  if not c.cclosed then begin
    c.cclosed <- true;
    Sockio.close_fd c.cfd
  end

let open_stream c ~stream (o : Proto.open_payload) =
  Proto.add_open c.cpayload o;
  send_frame c ~stream Proto.Open_stream;
  let f = await c ~stream Proto.Opened in
  Proto.read_opened f.Proto.payload

(* The frame is encoded into the client's output queue, which [send] has
   always emptied by the time a call starts, and written from there: no
   frame string per call. *)
let send_req c ~stream op edges ~pos ~len =
  Proto.put_req c.cout ~stream op edges ~pos ~len;
  send c

let request c ~stream edges ~pos ~len =
  send_req c ~stream Proto.Req edges ~pos ~len;
  let f = await c ~stream Proto.Decisions in
  let _start, ds = Proto.read_decisions f.Proto.payload in
  ds

let request_quiet c ~stream edges ~pos ~len =
  send_req c ~stream Proto.Req_quiet edges ~pos ~len;
  let f = await c ~stream Proto.Ack in
  Proto.read_ack f.Proto.payload

let checkpoint c ~stream =
  send_frame c ~stream Proto.Ckpt;
  let f = await c ~stream Proto.Ckpt_ok in
  Proto.read_ckpt_ok f.Proto.payload

let close_stream c ~stream =
  send_frame c ~stream Proto.Close_stream;
  let f = await c ~stream Proto.Closed in
  Proto.read_closed f.Proto.payload

let shutdown_server c =
  send_frame c ~stream:0 Proto.Shutdown;
  let rec drainloop () =
    match recv_frame c with
    | _ -> drainloop ()
    | exception Disconnected _ -> ()
  in
  drainloop ();
  close c
