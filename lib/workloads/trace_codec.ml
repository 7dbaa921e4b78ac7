module Binc = Rbgp_util.Binc

let magic = "RBGT"
let version = 1

type header = { version : int; n : int; ell : int; seed : int }

let fail ?(path = "<channel>") fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Trace_codec: %s: %s" path msg))
    fmt

let output_header oc ~n ~ell ~seed =
  output_string oc magic;
  Binc.output_varint oc version;
  Binc.output_varint oc n;
  Binc.output_varint oc ell;
  Binc.output_zigzag oc seed

let input_header ?path ic =
  let m = try really_input_string ic (String.length magic) with
    | End_of_file -> fail ?path "missing magic (file shorter than %d bytes)"
                       (String.length magic)
  in
  if m <> magic then
    fail ?path "bad magic %S (expected %S — not a binary trace?)" m magic;
  let v = Binc.input_varint ic in
  if v <> version then fail ?path "unsupported format version %d" v;
  let n = Binc.input_varint ic in
  if n <= 0 then fail ?path "header n = %d is not positive" n;
  let ell = Binc.input_varint ic in
  let seed = Binc.input_zigzag ic in
  { version = v; n; ell; seed }

let output_request oc e = Binc.output_varint oc e

(* [pos_in] counts from [base], the channel's position at the stream's
   first byte: 0 for a file opened at its start, -1 for a pipe, whose
   descriptor cannot seek. *)
let input_request_opt ?path ?(base = 0) ic ~n =
  match Binc.input_varint_opt ic with
  | None -> None
  | Some e ->
      if e < 0 || e >= n then
        fail ?path "edge %d out of [0, %d) (frame ends at byte %d)" e n
          (pos_in ic - base);
      Some e
  | exception Binc.Torn k ->
      fail ?path "torn frame (truncated varint at byte %d)"
        (pos_in ic - base - k)
  | exception Invalid_argument _ ->
      (* the varint was refused at its tenth byte *)
      fail ?path "bad frame (varint over 9 bytes at byte %d)"
        (pos_in ic - base - 10)

(* --- zero-copy region path (mmap) ------------------------------------- *)

let map ?path:path_label path =
  let label = match path_label with Some p -> p | None -> path in
  let fd =
    match
      Rbgp_util.Durable.retry_transient (fun () ->
          Unix.openfile path [ Unix.O_RDONLY ] 0)
    with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _) ->
        (* as open_in_bin reports it, so every Source mode fails alike *)
        raise (Sys_error (label ^ ": " ^ Unix.error_message err))
  in
  match
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])
  with
  | big ->
      (* the mapping outlives the descriptor *)
      Unix.close fd;
      Binc.region big
  | exception e ->
      Unix.close fd;
      (match e with
      | Unix.Unix_error (err, _, _) ->
          fail ~path:label "cannot mmap: %s" (Unix.error_message err)
      | e -> raise e)

(* Only regular, non-empty files are worth mapping: pipes and sockets
   cannot be mmap'ed at all, and a zero-length mapping is rejected by the
   kernel while the channel path already reports "missing magic" for it. *)
let can_map ~path =
  match Rbgp_util.Durable.retry_transient (fun () -> Unix.stat path) with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size > 0
  | _ -> false
  | exception Unix.Unix_error _ -> false

let header_of_region ?path r =
  let m =
    try Binc.region_read_string r (String.length magic)
    with Invalid_argument _ ->
      fail ?path "missing magic (file shorter than %d bytes)"
        (String.length magic)
  in
  if m <> magic then
    fail ?path "bad magic %S (expected %S — not a binary trace?)" m magic;
  let v = Binc.region_read_varint r in
  if v <> version then fail ?path "unsupported format version %d" v;
  let n = Binc.region_read_varint r in
  if n <= 0 then fail ?path "header n = %d is not positive" n;
  let ell = Binc.region_read_varint r in
  let seed = Binc.region_read_zigzag r in
  { version = v; n; ell; seed }

(* The error path of [decode_requests_into]: a block that holds a bad
   frame (a torn or over-long varint, or an edge out of range) is read
   again frame by frame from its start.  The valid requests before the
   bad frame are delivered and the cursor parks on that frame's first
   byte, so the call that meets it first raises, and so does every later
   one, as the channel backend does after its first error.  The messages
   are [input_request_opt]'s, naming the same byte. *)
let recheck_block ?path r ~n out ~limit ~block_start =
  Binc.region_seek r block_start;
  let rec go j =
    if j >= limit || Binc.region_at_end r then j
    else begin
      let start = Binc.region_pos r in
      match Binc.region_read_varint r with
      | e when e >= 0 && e < n ->
          out.(j) <- e;
          go (j + 1)
      | e ->
          let frame_end = Binc.region_pos r in
          Binc.region_seek r start;
          if j > 0 then j
          else
            fail ?path "edge %d out of [0, %d) (frame ends at byte %d)" e n
              frame_end
      | exception Invalid_argument _ ->
          (* a varint runs past the region end (torn) or is refused at its
             tenth byte *)
          let torn = Binc.region_at_end r in
          Binc.region_seek r start;
          if j > 0 then j
          else if torn then
            fail ?path "torn frame (truncated varint at byte %d)" start
          else fail ?path "bad frame (varint over 9 bytes at byte %d)" start
    end
  in
  go 0

(* Bulk frame decode + validation, the hot half of the mmap ingest path:
   one block-decoder call, one branch-per-request validation scan, no
   allocation.  Torn-tail behaviour mirrors [input_request_opt] frame for
   frame (see Binc.decode_varints); any other bad frame takes
   [recheck_block]. *)
let decode_requests_into ?path r ~n out ~limit =
  let block_start = Binc.region_pos r in
  match Binc.decode_varints r out ~limit with
  | exception Invalid_argument _ ->
      recheck_block ?path r ~n out ~limit ~block_start
  | got -> (
      match
        for j = 0 to got - 1 do
          let e = out.(j) in
          if e < 0 || e >= n then raise Exit
        done
      with
      | () -> got
      | exception Exit -> recheck_block ?path r ~n out ~limit ~block_start)

let write ~path ~n ?(ell = 0) ?(seed = 0) trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_header oc ~n ~ell ~seed;
      Array.iter
        (fun e ->
          if e < 0 || e >= n then
            fail ~path "cannot write edge %d out of [0, %d)" e n;
          output_request oc e)
        trace)
