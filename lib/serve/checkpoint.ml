module Binc = Rbgp_util.Binc
module Crc32 = Rbgp_util.Crc32
module Durable = Rbgp_util.Durable

type t = {
  alg : string;
  epsilon : float;
  seed : int;
  n : int;
  ell : int;
  k : int;
  initial : int array;
  pos : int;
  digest : int;
  comm : int;
  mig : int;
  max_load : int;
  violations : int;
  assignment : int array;
  alg_state : string option;
  degraded_left : int;
}

let magic = "RBGC"
let version = 3

(* A position-keyed sum over OCaml's 63-bit ring: request [pos] adds
   [mix pos e], where xor with a position key, multiplication by an odd
   constant and an xorshift are each bijective in [e].  So two sequences
   that differ in exactly one request always digest differently, and
   unlike a chained hash the terms are independent: a batch folds them
   at full pipeline width instead of one multiply latency per request. *)
let digest_empty = 0

let[@inline] digest_add d ~pos e =
  let x = (e lxor (pos * 0x1E3779B97F4A7C15)) * 0x3F58476D1CE4E5B9 in
  d + (x lxor (x lsr 31))

(* A self tail call is a jump, so this is a call-free loop that keeps
   the digest in a register and allocates nothing. *)
let rec digest_from d ~pos edges j len =
  if j >= len then d
  else
    digest_from (digest_add d ~pos:(pos + j) edges.(j)) ~pos edges (j + 1) len

let digest_block d ~pos edges len = digest_from d ~pos edges 0 len

let fail ?(path = "<string>") fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Checkpoint: %s: %s" path msg))
    fmt

(* Layout: magic, varint version, Binc-framed fields in record order
   (floats as exact IEEE bits, the full-width digest as 8 bytes), then a
   little-endian CRC-32 trailer over every preceding byte, so torn or
   bit-flipped records are detected before any field is trusted. *)
let to_string t =
  let state =
    match t.alg_state with
    | Some s -> s
    | None -> invalid_arg "Checkpoint.to_string: no algorithm state"
  in
  let buf = Buffer.create (96 + (2 * t.n) + String.length state) in
  Buffer.add_string buf magic;
  Binc.add_varint buf version;
  Binc.add_string buf t.alg;
  Binc.add_float buf t.epsilon;
  Binc.add_zigzag buf t.seed;
  Binc.add_varint buf t.n;
  Binc.add_varint buf t.ell;
  Binc.add_varint buf t.k;
  Binc.add_int_array buf t.initial;
  Binc.add_varint buf t.pos;
  Binc.add_int64 buf (Int64.of_int t.digest);
  Binc.add_varint buf t.comm;
  Binc.add_varint buf t.mig;
  Binc.add_varint buf t.max_load;
  Binc.add_varint buf t.violations;
  Binc.add_int_array buf t.assignment;
  Binc.add_string buf state;
  Binc.add_varint buf t.degraded_left;
  let crc = Crc32.string (Buffer.contents buf) in
  Buffer.add_char buf (Char.chr (crc land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xff));
  Buffer.contents buf

let of_string ?path s =
  if String.length s < String.length magic
     || not (String.equal (String.sub s 0 (String.length magic)) magic)
  then fail ?path "bad magic (not a checkpoint file)";
  let r = Binc.reader ~pos:(String.length magic) s in
  (try
     let v = Binc.read_varint r in
     if v < 1 || v > version then
       fail ?path "unsupported checkpoint version %d" v;
     (* verify the CRC trailer (version 2 files carry the same one) before
        trusting any field, so a flipped version byte reads as corruption *)
     let len = String.length s in
     if v >= 2 then begin
       if len < Binc.reader_pos r + 4 then
         fail ?path "torn record (no room for CRC trailer, %d bytes)" len;
       let stored =
         Char.code s.[len - 4]
         lor (Char.code s.[len - 3] lsl 8)
         lor (Char.code s.[len - 2] lsl 16)
         lor (Char.code s.[len - 1] lsl 24)
       in
       let actual = Crc32.string ~len:(len - 4) s in
       if stored <> actual then
         fail ?path "CRC mismatch (stored %08x, computed %08x over %d bytes)"
           stored actual (len - 4)
     end;
     if v < version then
       fail ?path
         "checkpoint format version %d is no longer supported: it resumed by \
          prefix replay, and this build reads only version %d state \
          snapshots (re-serve the trace to write one)"
         v version;
     let body_end = len - 4 in
     (* explicit sequencing: record fields evaluate in unspecified order *)
     let alg = Binc.read_string r in
     let epsilon = Binc.read_float r in
     let seed = Binc.read_zigzag r in
     let n = Binc.read_varint r in
     let ell = Binc.read_varint r in
     let k = Binc.read_varint r in
     let initial = Binc.read_int_array r in
     let pos = Binc.read_varint r in
     let digest = Int64.to_int (Binc.read_int64 r) in
     let comm = Binc.read_varint r in
     let mig = Binc.read_varint r in
     let max_load = Binc.read_varint r in
     let violations = Binc.read_varint r in
     let assignment = Binc.read_int_array r in
     let alg_state = Binc.read_string r in
     let degraded_left = Binc.read_varint r in
     if Binc.reader_pos r <> body_end then
       fail ?path "record has %d trailing bytes before the CRC"
         (body_end - Binc.reader_pos r);
     if Array.length initial <> n || Array.length assignment <> n then
       fail ?path "assignment arrays do not match n = %d" n;
     {
       alg; epsilon; seed; n; ell; k; initial; pos; digest;
       comm; mig; max_load; violations; assignment;
       alg_state = Some alg_state; degraded_left;
     }
   with Invalid_argument msg when String.length msg >= 4
                                  && String.equal (String.sub msg 0 4) "Binc"
     -> fail ?path "torn record (%s)" msg)

(* All checkpoint bytes reach disk through [Durable.atomic_write] — except
   when the fault plan tears this write, in which case the truncated bytes
   are deliberately written straight to the final path (modelling a legacy
   non-atomic writer or a device that acknowledged an incomplete flush)
   and the process "dies": recovery must then fall back to an older
   generation, which is exactly what the crash matrix exercises. *)
let write ~path t =
  let data = to_string t in
  match Fault.checkpoint_write_plan ~len:(String.length data) with
  | `Full -> Durable.atomic_write ~path data
  | `Flip bit ->
      let b = Bytes.of_string data in
      let i = bit lsr 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
      Durable.atomic_write ~path (Bytes.unsafe_to_string b)
  | `Tear keep ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (String.sub data 0 (min keep (String.length data))));
      raise (Fault.Injected_crash (Printf.sprintf "ckpt-tear (%d bytes kept)" keep))

let read ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string ~path (really_input_string ic len))

let verify ~path =
  match read ~path with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg
  | exception Sys_error msg -> Error msg

(* --- rolling generations ---------------------------------------------- *)

let generation_path path g =
  if g = 0 then path else Printf.sprintf "%s.%d" path g

(* Rotate before writing: if the process dies between the rotation and the
   new write, [path] is missing but [path.1] holds the previous good
   generation, so [read_latest] still recovers. *)
let write_rolling ~path ~keep t =
  if keep < 1 then invalid_arg "Checkpoint.write_rolling: keep < 1";
  for g = keep - 2 downto 0 do
    let src = generation_path path g in
    if Sys.file_exists src then Sys.rename src (generation_path path (g + 1))
  done;
  write ~path t

type recovery = {
  ckpt : t;
  generation : int;
  skipped : (string * string) list;
}

let read_latest ?(generations = 8) ~path () =
  let rec scan g skipped =
    if g >= generations then
      match skipped with
      | [] ->
          fail ~path "no checkpoint generation found (looked at %d paths)"
            generations
      | _ ->
          fail ~path "no verifiable checkpoint generation: %s"
            (String.concat "; "
               (List.rev_map (fun (p, m) -> Printf.sprintf "%s: %s" p m) skipped))
    else
      let p = generation_path path g in
      if not (Sys.file_exists p) then
        (* a missing newest generation is normal right after rotation; a
           gap below an existing one just means fewer generations kept *)
        scan (g + 1) skipped
      else
        match read ~path:p with
        | ckpt -> { ckpt; generation = g; skipped = List.rev skipped }
        | exception Invalid_argument msg -> scan (g + 1) ((p, msg) :: skipped)
        | exception Sys_error msg -> scan (g + 1) ((p, msg) :: skipped)
  in
  scan 0 []

let to_json t =
  Printf.sprintf
    "{\"type\":\"checkpoint\",\"version\":%d,\"alg\":\"%s\",\"epsilon\":%g,\
     \"seed\":%d,\"n\":%d,\"ell\":%d,\"k\":%d,\"pos\":%d,\"digest\":\"%016x\",\
     \"comm\":%d,\"mig\":%d,\"max_load\":%d,\"violations\":%d,\
     \"state_bytes\":%d,\"degraded_left\":%d}"
    version t.alg t.epsilon t.seed t.n t.ell t.k t.pos t.digest t.comm t.mig
    t.max_load t.violations
    (match t.alg_state with Some s -> String.length s | None -> 0)
    t.degraded_left
