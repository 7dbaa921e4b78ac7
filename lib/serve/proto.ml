exception Protocol_error of string

let magic = "RBGN"
let version = 1
let max_payload = 16 * 1024 * 1024

type op =
  | Hello
  | Open_stream
  | Req
  | Req_quiet
  | Ckpt
  | Close_stream
  | Shutdown
  | Opened
  | Decisions
  | Ack
  | Ckpt_ok
  | Closed
  | Error_frame
  | Draining

let op_to_int = function
  | Hello -> 1
  | Open_stream -> 2
  | Req -> 3
  | Req_quiet -> 4
  | Ckpt -> 5
  | Close_stream -> 6
  | Shutdown -> 7
  | Opened -> 8
  | Decisions -> 9
  | Ack -> 10
  | Ckpt_ok -> 11
  | Closed -> 12
  | Error_frame -> 13
  | Draining -> 14

let op_of_int = function
  | 1 -> Hello
  | 2 -> Open_stream
  | 3 -> Req
  | 4 -> Req_quiet
  | 5 -> Ckpt
  | 6 -> Close_stream
  | 7 -> Shutdown
  | 8 -> Opened
  | 9 -> Decisions
  | 10 -> Ack
  | 11 -> Ckpt_ok
  | 12 -> Closed
  | 13 -> Error_frame
  | 14 -> Draining
  | n -> raise (Protocol_error (Printf.sprintf "unknown opcode %d" n))

let op_name = function
  | Hello -> "hello"
  | Open_stream -> "open"
  | Req -> "req"
  | Req_quiet -> "req-quiet"
  | Ckpt -> "ckpt"
  | Close_stream -> "close"
  | Shutdown -> "shutdown"
  | Opened -> "opened"
  | Decisions -> "decisions"
  | Ack -> "ack"
  | Ckpt_ok -> "ckpt-ok"
  | Closed -> "closed"
  | Error_frame -> "error"
  | Draining -> "draining"

let err_proto = 1
let err_unknown_stream = 2
let err_tenant_failed = 3
let err_config_mismatch = 4
let err_draining = 5

type frame = { stream : int; op : op; payload : string }

(* A queue keeps its bytes in [buf.(start .. start+len-1)].  Writers
   append after them, compacting or growing the window first ([room]);
   readers take bytes off the front ([consume]).  A frame whose header
   or payload runs past the queued bytes is a torn frame: [next] returns
   [None] and leaves the window untouched, exactly the parking
   discipline of the mmap/channel trace readers. *)
type queue = { mutable buf : bytes; mutable start : int; mutable len : int }

let queue () = { buf = Bytes.create 4096; start = 0; len = 0 }

(* Make room for [n] more bytes after the window: move the window to the
   front if that is enough, else move it into a buffer doubled until it
   is. *)
let room q n =
  let cap = Bytes.length q.buf in
  if q.start + q.len + n > cap then begin
    if q.len + n <= cap then Bytes.blit q.buf q.start q.buf 0 q.len
    else begin
      let cap' =
        let rec grow c = if c >= q.len + n then c else grow (2 * c) in
        grow (2 * cap)
      in
      let nb = Bytes.create cap' in
      Bytes.blit q.buf q.start nb 0 q.len;
      q.buf <- nb
    end;
    q.start <- 0
  end

(* The one retention rule: an emptied window that grew past
   [retain_window] for one large frame goes back to its initial size, so
   a connection or client does not keep it. *)
let retain_window = 1 lsl 20

let consume q n =
  if n < 0 || n > q.len then invalid_arg "Proto.consume";
  q.start <- q.start + n;
  q.len <- q.len - n;
  if q.len = 0 then begin
    q.start <- 0;
    if Bytes.length q.buf > retain_window then q.buf <- Bytes.create 4096
  end

let feed q src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Proto.feed";
  room q len;
  Bytes.blit src off q.buf (q.start + q.len) len;
  q.len <- q.len + len

let feed_string q s = feed q (Bytes.unsafe_of_string s) 0 (String.length s)

(* Bytes in the varint of [v >= 0]. *)
let rec varint_len v = if v < 0x80 then 1 else 1 + varint_len (v lsr 7)

(* Write [v >= 0]'s varint at [pos]; returns the position after it. *)
let rec put_varint b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_varint b (pos + 1) (v lsr 7)
  end

(* Write the header of a frame with a [plen]-byte payload at [p];
   returns the position after it. *)
let put_header b p ~stream op ~plen =
  put_varint b (put_varint b (put_varint b p stream) (op_to_int op)) plen

let header_len ~stream op ~plen =
  varint_len stream + varint_len (op_to_int op) + varint_len plen

let put_frame q ~stream op payload =
  let plen = Buffer.length payload in
  if plen > max_payload || stream < 0 then begin
    Buffer.reset payload;
    if plen > max_payload then
      raise (Protocol_error (Printf.sprintf "payload %d over limit" plen));
    invalid_arg "Binc.add_varint: negative"
  end;
  let n = header_len ~stream op ~plen + plen in
  room q n;
  let p = put_header q.buf (q.start + q.len) ~stream op ~plen in
  Buffer.blit payload 0 q.buf p plen;
  q.len <- q.len + n;
  if plen > retain_window then Buffer.reset payload else Buffer.clear payload

(* Incremental LEB128 parse at [pos] relative to the queued window:
   [`Got (value, bytes_consumed)] or [`Torn] when the varint runs past
   the buffered bytes.  Over 10 bytes can never complete into a 63-bit
   varint, so that raises rather than parks. *)
let parse_varint q pos =
  let rec go i shift acc =
    if i >= 10 then raise (Protocol_error "varint over 63 bits")
    else if pos + i >= q.len then `Torn
    else begin
      let b = Char.code (Bytes.get q.buf (q.start + pos + i)) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then `Got (acc, i + 1) else go (i + 1) (shift + 7) acc
    end
  in
  go 0 0 0

(* The frame at the front of the window once all of it is buffered:
   [Some (stream, op, header bytes, payload bytes)]. *)
let front q =
  match parse_varint q 0 with
  | `Torn -> None
  | `Got (stream, c1) -> (
      match parse_varint q c1 with
      | `Torn -> None
      | `Got (opn, c2) -> (
          let op = op_of_int opn in
          match parse_varint q (c1 + c2) with
          | `Torn -> None
          | `Got (plen, c3) ->
              if plen < 0 || stream < 0 then
                raise (Protocol_error "negative header field");
              if plen > max_payload then
                raise
                  (Protocol_error (Printf.sprintf "payload %d over limit" plen));
              let hdr = c1 + c2 + c3 in
              if q.len < hdr + plen then None
              else Some (stream, op, hdr, plen)))

let take_payload q ~stream op hdr plen =
  let payload = Bytes.sub_string q.buf (q.start + hdr) plen in
  consume q (hdr + plen);
  Some { stream; op; payload }

let next q =
  match front q with
  | None -> None
  | Some (stream, op, hdr, plen) -> take_payload q ~stream op hdr plen

(* Payload codecs.  Decoders wrap Binc's [Invalid_argument] (truncated
   input) into [Protocol_error] so connection handlers distinguish a bad
   peer from a programming error, and reject trailing bytes the same way
   checkpoint decoding does. *)

let reader_of payload = Rbgp_util.Binc.reader payload

let finish r what =
  if not (Rbgp_util.Binc.at_end r) then
    raise (Protocol_error (Printf.sprintf "%s: trailing bytes" what))

let decode what f payload =
  match f (reader_of payload) with
  | v -> v
  | exception Invalid_argument m ->
      raise (Protocol_error (Printf.sprintf "%s: %s" what m))

let add_hello buf =
  Buffer.add_string buf magic;
  Rbgp_util.Binc.add_varint buf version

let read_hello payload =
  if
    String.length payload < 4
    || not (String.equal (String.sub payload 0 4) magic)
  then raise (Protocol_error "bad hello magic");
  match
    let r = Rbgp_util.Binc.reader ~pos:4 payload in
    let v = Rbgp_util.Binc.read_varint r in
    finish r "hello";
    v
  with
  | v -> v
  | exception Invalid_argument m ->
      raise (Protocol_error (Printf.sprintf "hello: %s" m))

type open_payload = {
  tenant : string;
  alg : string;
  n : int;
  ell : int;
  epsilon : float;
  seed : int;
}

let add_open buf (o : open_payload) =
  Rbgp_util.Binc.add_string buf o.tenant;
  Rbgp_util.Binc.add_string buf o.alg;
  Rbgp_util.Binc.add_varint buf o.n;
  Rbgp_util.Binc.add_varint buf o.ell;
  (* Hex float round-trips bit-exactly through the decimal-free path, so
     both sides agree on epsilon to the last bit. *)
  Rbgp_util.Binc.add_string buf (Printf.sprintf "%h" o.epsilon);
  Rbgp_util.Binc.add_zigzag buf o.seed

let read_open payload =
  decode "open"
    (fun r ->
      let tenant = Rbgp_util.Binc.read_string r in
      let alg = Rbgp_util.Binc.read_string r in
      let n = Rbgp_util.Binc.read_varint r in
      let ell = Rbgp_util.Binc.read_varint r in
      let eps_s = Rbgp_util.Binc.read_string r in
      let epsilon =
        match float_of_string_opt eps_s with
        | Some f -> f
        | None -> raise (Protocol_error "open: bad epsilon")
      in
      let seed = Rbgp_util.Binc.read_zigzag r in
      finish r "open";
      { tenant; alg; n; ell; epsilon; seed })
    payload

(* --- request batches ---------------------------------------------------

   Request frames carry the socket path's per-request bytes, so both
   directions code them in one pass over buffers that the caller keeps:
   the client's output queue and the connection's [edge_buf].  The
   per-edge loops, [encode_edges] and [decode_edges], are r11 hot roots:
   they write into buffers sized before the loop starts and allocate only
   the message of a raise.  The bytes are a frame's header varints over a
   payload of [Binc] edge varints, and the errors are those of
   [Binc.add_varint] and [Binc.read_varint], at the same byte. *)

(* The edge array is kept up to [retain_edges] slots (512 KiB), which
   holds any payload up to 64 KiB.  A larger batch grows it for itself
   only: [trim_edges] releases it once that batch is served. *)
let retain_edges = 1 lsl 16

(* The payload is written after [header_room] bytes, and the header
   right-aligned in front of it once the payload length is known: a
   stream id takes at most 9 bytes, the opcode 1, and a length up to
   [max_payload] 4. *)
let header_room = 16

(* The varints of [edges.(pos .. pos+len-1)] from [p]; returns the
   position after the last.  Edges below 2^14, every edge of a ring up to
   16384 nodes, take the 1- and 2-byte branches. *)
let encode_edges b p edges ~pos ~len =
  let p = ref p in
  for i = pos to pos + len - 1 do
    let e = edges.(i) in
    if e < 0x80 then begin
      if e < 0 then invalid_arg "Binc.add_varint: negative";
      Bytes.set b !p (Char.unsafe_chr e);
      p := !p + 1
    end
    else if e < 0x4000 then begin
      Bytes.set b !p (Char.unsafe_chr (0x80 lor (e land 0x7f)));
      Bytes.set b (!p + 1) (Char.unsafe_chr (e lsr 7));
      p := !p + 2
    end
    else p := put_varint b !p e
  done;
  !p

(* The error of a batch whose payload does not fit [max_payload]: a
   negative edge anywhere comes first, as it would in [Binc.add_varint]
   over the whole batch. *)
let oversized_batch edges ~pos ~len =
  let plen = ref 0 in
  for i = pos to pos + len - 1 do
    if edges.(i) < 0 then invalid_arg "Binc.add_varint: negative";
    plen := !plen + varint_len edges.(i)
  done;
  raise (Protocol_error (Printf.sprintf "payload %d over limit" !plen))

let put_req q ~stream op edges ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length edges then
    invalid_arg "Proto.put_req";
  if q.len > 0 then invalid_arg "Proto.put_req: queue not drained";
  (* every edge takes at most 9 bytes and the room holds the payload of
     any batch under the limit, so running out of buffer (a bounds
     [Invalid_argument]) means the batch is over it *)
  room q (header_room + Int.min (9 * len) (max_payload + 9));
  let base = q.start + header_room in
  let stop =
    match encode_edges q.buf base edges ~pos ~len with
    | stop -> stop
    | exception Invalid_argument _ -> oversized_batch edges ~pos ~len
  in
  let plen = stop - base in
  if plen > max_payload then oversized_batch edges ~pos ~len;
  if stream < 0 then invalid_arg "Binc.add_varint: negative";
  let first = base - header_len ~stream op ~plen in
  ignore (put_header q.buf first ~stream op ~plen);
  q.start <- first;
  q.len <- stop - first

type edge_buf = { mutable arr : int array; mutable count : int }

let edge_buf () = { arr = [||]; count = 0 }

(* An edge array of at least [need] slots: doubling up to the retained
   size, exactly [need] above it. *)
let fresh_size ~have ~need =
  if need > retain_edges then need
  else Int.min retain_edges (Int.max need (2 * have))

(* The varint at [p] in a payload of [b.(off .. stop-1)] when the 1- and
   2-byte paths do not take it: written to [arr.(k)], returns the
   position after it.  The checks and their order are
   [Binc.read_varint]'s. *)
let decode_long arr k b p ~off ~stop =
  let v = ref 0 and shift = ref 0 and q = ref p and continue = ref true in
  while !continue do
    if !q >= stop then
      raise (Protocol_error (Printf.sprintf "req: Binc.read_varint: truncated input at byte %d" (stop - off)));
    if !shift > 62 then
      raise (Protocol_error "req: Binc.read_varint: varint too long");
    let c = Char.code (Bytes.get b !q) in
    q := !q + 1;
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := c >= 0x80
  done;
  arr.(k) <- !v;
  !q

(* The edges of the payload [b.(off .. off+plen-1)] into [arr], which
   holds at least [plen] (every varint takes a byte); returns their
   count. *)
let decode_edges arr b ~off ~plen =
  let stop = off + plen in
  let p = ref off and k = ref 0 in
  while !p < stop do
    let b0 = Char.code (Bytes.get b !p) in
    if b0 < 0x80 then begin
      arr.(!k) <- b0;
      p := !p + 1
    end
    else if !p + 1 < stop && Char.code (Bytes.get b (!p + 1)) < 0x80 then begin
      arr.(!k) <- (b0 land 0x7f) lor (Char.code (Bytes.get b (!p + 1)) lsl 7);
      p := !p + 2
    end
    else p := decode_long arr !k b !p ~off ~stop;
    k := !k + 1
  done;
  !k

let trim_edges es =
  if Array.length es.arr > retain_edges then begin
    es.arr <- [||];
    es.count <- 0
  end

let next_req q es =
  match front q with
  | None -> None
  | Some (stream, ((Req | Req_quiet) as op), hdr, plen) ->
      if Array.length es.arr < plen then
        es.arr <-
          Array.make (fresh_size ~have:(Array.length es.arr) ~need:plen) 0;
      es.count <- 0;
      es.count <- decode_edges es.arr q.buf ~off:(q.start + hdr) ~plen;
      consume q (hdr + plen);
      Some { stream; op; payload = "" }
  | Some (stream, op, hdr, plen) -> take_payload q ~stream op hdr plen

let add_opened buf ~pos = Rbgp_util.Binc.add_varint buf pos

let read_opened payload =
  decode "opened"
    (fun r ->
      let pos = Rbgp_util.Binc.read_varint r in
      finish r "opened";
      pos)
    payload

let add_decisions buf ~start_pos (ds : Engine.decision array) =
  Rbgp_util.Binc.add_varint buf start_pos;
  Rbgp_util.Binc.add_varint buf (Array.length ds);
  Array.iter
    (fun (d : Engine.decision) ->
      Rbgp_util.Binc.add_varint buf d.edge;
      Rbgp_util.Binc.add_varint buf d.comm;
      Rbgp_util.Binc.add_varint buf d.moved;
      Rbgp_util.Binc.add_varint buf d.cum_comm;
      Rbgp_util.Binc.add_varint buf d.cum_mig;
      Rbgp_util.Binc.add_varint buf d.max_load;
      Rbgp_util.Binc.add_varint buf d.latency_ns)
    ds

let read_decisions payload =
  decode "decisions"
    (fun r ->
      let start_pos = Rbgp_util.Binc.read_varint r in
      let count = Rbgp_util.Binc.read_varint r in
      if count > max_payload then
        raise (Protocol_error "decisions: count over limit");
      let ds =
        Array.init count (fun i ->
            let edge = Rbgp_util.Binc.read_varint r in
            let comm = Rbgp_util.Binc.read_varint r in
            let moved = Rbgp_util.Binc.read_varint r in
            let cum_comm = Rbgp_util.Binc.read_varint r in
            let cum_mig = Rbgp_util.Binc.read_varint r in
            let max_load = Rbgp_util.Binc.read_varint r in
            let latency_ns = Rbgp_util.Binc.read_varint r in
            {
              Engine.step = start_pos + i;
              edge;
              comm;
              moved;
              cum_comm;
              cum_mig;
              max_load;
              latency_ns;
            })
      in
      finish r "decisions";
      (start_pos, ds))
    payload

type ack_payload = {
  count : int;
  pos : int;
  cum_comm : int;
  cum_mig : int;
  ack_max_load : int;
  violations : int;
}

let add_ack buf (a : ack_payload) =
  Rbgp_util.Binc.add_varint buf a.count;
  Rbgp_util.Binc.add_varint buf a.pos;
  Rbgp_util.Binc.add_varint buf a.cum_comm;
  Rbgp_util.Binc.add_varint buf a.cum_mig;
  Rbgp_util.Binc.add_varint buf a.ack_max_load;
  Rbgp_util.Binc.add_varint buf a.violations

let read_ack payload =
  decode "ack"
    (fun r ->
      let count = Rbgp_util.Binc.read_varint r in
      let pos = Rbgp_util.Binc.read_varint r in
      let cum_comm = Rbgp_util.Binc.read_varint r in
      let cum_mig = Rbgp_util.Binc.read_varint r in
      let ack_max_load = Rbgp_util.Binc.read_varint r in
      let violations = Rbgp_util.Binc.read_varint r in
      finish r "ack";
      { count; pos; cum_comm; cum_mig; ack_max_load; violations })
    payload

let add_ckpt_ok buf ~pos = Rbgp_util.Binc.add_varint buf pos

let read_ckpt_ok payload =
  decode "ckpt-ok"
    (fun r ->
      let pos = Rbgp_util.Binc.read_varint r in
      finish r "ckpt-ok";
      pos)
    payload

type closed_payload = {
  closed_pos : int;
  closed_comm : int;
  closed_mig : int;
  closed_max_load : int;
  closed_violations : int;
}

let add_closed buf (c : closed_payload) =
  Rbgp_util.Binc.add_varint buf c.closed_pos;
  Rbgp_util.Binc.add_varint buf c.closed_comm;
  Rbgp_util.Binc.add_varint buf c.closed_mig;
  Rbgp_util.Binc.add_varint buf c.closed_max_load;
  Rbgp_util.Binc.add_varint buf c.closed_violations

let read_closed payload =
  decode "closed"
    (fun r ->
      let closed_pos = Rbgp_util.Binc.read_varint r in
      let closed_comm = Rbgp_util.Binc.read_varint r in
      let closed_mig = Rbgp_util.Binc.read_varint r in
      let closed_max_load = Rbgp_util.Binc.read_varint r in
      let closed_violations = Rbgp_util.Binc.read_varint r in
      finish r "closed";
      { closed_pos; closed_comm; closed_mig; closed_max_load; closed_violations })
    payload

let add_error buf ~code msg =
  Rbgp_util.Binc.add_varint buf code;
  Rbgp_util.Binc.add_string buf msg

let read_error payload =
  decode "error"
    (fun r ->
      let code = Rbgp_util.Binc.read_varint r in
      let msg = Rbgp_util.Binc.read_string r in
      finish r "error";
      (code, msg))
    payload
