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

let add_frame buf ~stream op payload =
  let len = String.length payload in
  if len > max_payload then
    raise (Protocol_error (Printf.sprintf "payload %d over limit" len));
  Rbgp_util.Binc.add_varint buf stream;
  Rbgp_util.Binc.add_varint buf (op_to_int op);
  Rbgp_util.Binc.add_varint buf len;
  Buffer.add_string buf payload

let frame_to_string ~stream op payload =
  let buf = Buffer.create (String.length payload + 12) in
  add_frame buf ~stream op payload;
  Buffer.contents buf

(* The dechunker keeps undelivered bytes in [buf.(start .. start+len)];
   [feed] appends (compacting or growing first) and [next] parses frames
   off the front.  A frame whose header or payload runs past the
   buffered bytes is a torn frame: [next] returns [None] and leaves the
   cursor untouched, exactly the parking discipline of the mmap/channel
   trace readers. *)
type dechunker = { mutable buf : bytes; mutable start : int; mutable len : int }

let dechunker () = { buf = Bytes.create 4096; start = 0; len = 0 }

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Proto.feed";
  let cap = Bytes.length d.buf in
  if d.start + d.len + len > cap then begin
    if d.len + len <= cap then begin
      Bytes.blit d.buf d.start d.buf 0 d.len;
      d.start <- 0
    end
    else begin
      let cap' =
        let rec grow c = if c >= d.len + len then c else grow (2 * c) in
        grow (2 * cap)
      in
      let nb = Bytes.create cap' in
      Bytes.blit d.buf d.start nb 0 d.len;
      d.buf <- nb;
      d.start <- 0
    end
  end;
  Bytes.blit src off d.buf (d.start + d.len) len;
  d.len <- d.len + len

let feed_string d s =
  feed d (Bytes.unsafe_of_string s) 0 (String.length s)

let pending_bytes d = d.len

(* Incremental LEB128 parse at [pos] relative to the undelivered window:
   [`Got (value, bytes_consumed)] or [`Torn] when the varint runs past
   the buffered bytes.  Over 10 bytes can never complete into a 63-bit
   varint, so that raises rather than parks. *)
let parse_varint d pos =
  let rec go i shift acc =
    if i >= 10 then raise (Protocol_error "varint over 63 bits")
    else if pos + i >= d.len then `Torn
    else begin
      let b = Char.code (Bytes.get d.buf (d.start + pos + i)) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then `Got (acc, i + 1) else go (i + 1) (shift + 7) acc
    end
  in
  go 0 0 0

let next d =
  match parse_varint d 0 with
  | `Torn -> None
  | `Got (stream, c1) -> (
      match parse_varint d c1 with
      | `Torn -> None
      | `Got (opn, c2) -> (
          let op = op_of_int opn in
          match parse_varint d (c1 + c2) with
          | `Torn -> None
          | `Got (plen, c3) ->
              if plen < 0 || stream < 0 then
                raise (Protocol_error "negative header field");
              if plen > max_payload then
                raise
                  (Protocol_error (Printf.sprintf "payload %d over limit" plen));
              let hdr = c1 + c2 + c3 in
              if d.len < hdr + plen then None
              else begin
                let payload =
                  Bytes.sub_string d.buf (d.start + hdr) plen
                in
                d.start <- d.start + hdr + plen;
                d.len <- d.len - hdr - plen;
                if d.len = 0 then d.start <- 0;
                Some { stream; op; payload }
              end))

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

(* Request frames carry the socket path's per-request bytes, so they
   are coded in tight loops over one exactly sized buffer rather than
   through [Buffer] and [Binc] calls per edge; the bytes are those of
   [frame_to_string] over a payload of edge varints. *)

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

let req_frame ~stream op edges ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length edges then
    invalid_arg "Proto.req_frame";
  let plen = ref 0 in
  for i = pos to pos + len - 1 do
    let e = edges.(i) in
    if e < 0 then invalid_arg "Binc.add_varint: negative";
    plen := !plen + varint_len e
  done;
  let plen = !plen in
  if plen > max_payload then
    raise (Protocol_error (Printf.sprintf "payload %d over limit" plen));
  if stream < 0 then invalid_arg "Binc.add_varint: negative";
  let opn = op_to_int op in
  let b =
    Bytes.create (varint_len stream + varint_len opn + varint_len plen + plen)
  in
  let p = ref (put_varint b (put_varint b (put_varint b 0 stream) opn) plen) in
  for i = pos to pos + len - 1 do
    p := put_varint b !p edges.(i)
  done;
  Bytes.unsafe_to_string b

(* Two passes: count the varints (each ends in the one byte of it below
   0x80), then decode them into an array of exactly that size.  The
   errors are [Binc.read_varint]'s, raised at the same byte. *)
let read_req payload =
  let len = String.length payload in
  let count = ref 0 in
  for i = 0 to len - 1 do
    if Char.code payload.[i] < 0x80 then incr count
  done;
  let edges = Array.make !count 0 in
  let k = ref 0 and v = ref 0 and shift = ref 0 in
  for p = 0 to len - 1 do
    if !shift > 62 then
      raise (Protocol_error "req: Binc.read_varint: varint too long");
    let b = Char.code payload.[p] in
    v := !v lor ((b land 0x7f) lsl !shift);
    if b < 0x80 then begin
      edges.(!k) <- !v;
      incr k;
      v := 0;
      shift := 0
    end
    else shift := !shift + 7
  done;
  if !shift > 0 then
    raise
      (Protocol_error
         (Printf.sprintf "req: Binc.read_varint: truncated input at byte %d"
            len));
  edges

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
