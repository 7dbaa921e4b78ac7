module Trace_io = Rbgp_workloads.Trace_io
module Trace_codec = Rbgp_workloads.Trace_codec
module Binc = Rbgp_util.Binc
module Durable = Rbgp_util.Durable

type format = [ `Auto | `Text | `Binary ]
type mmap = [ `Auto | `On | `Off ]

(* Two backends, one contract.  [Channel] pulls framed or text requests
   through a (possibly blocking) in_channel — the only option for pipes
   and stdin.  [Mapped] decodes straight out of the mmap'ed file bytes:
   no per-byte closure calls, no read syscalls on the hot path, and
   next_batch amortizes even the per-request dispatch into one block
   decode per batch. *)
type backend =
  | Channel of {
      next_req : unit -> int option;
      ic : in_channel;
      owns : bool;
      mutable failed : exn option;  (* the decode error that ended it *)
    }
  | Mapped of { region : Binc.region; path : string }

type t = {
  backend : backend;
  hdr : Trace_codec.header option;
  n : int;
  path : string;
}

let fail ~path fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Source: %s: %s" path msg))
    fmt

let check_header ~path ~n (hdr : Trace_codec.header) =
  if hdr.Trace_codec.n <> n then
    fail ~path "binary trace is for n = %d, expected n = %d"
      hdr.Trace_codec.n n

(* Each channel pull runs inside [Durable.retry_transient]: a transient
   EINTR/EAGAIN is retried with bounded attempts before it surfaces.  The
   retried thunk is built once per source, not per pull. *)
let wrap_reads next_req () = Durable.retry_transient next_req

let of_channel ?(path = "<channel>") ?(owns_channel = false) ~format ~n ic =
  (* every construction failure (header parse, n mismatch) releases the
     channel when this source was to own it — not just the open_file
     wrapper *)
  let build () =
    match format with
    | `Text ->
        let lineno = ref 0 in
        {
          backend =
            Channel
              {
                next_req =
                  wrap_reads (fun () ->
                      Trace_io.input_request_opt ~path ~lineno ic ~n);
                ic;
                owns = owns_channel;
                failed = None;
              };
          hdr = None;
          n;
          path;
        }
    | `Binary ->
        let base = pos_in ic in
        let hdr = Trace_codec.input_header ~path ic in
        check_header ~path ~n hdr;
        {
          backend =
            Channel
              {
                next_req =
                  wrap_reads (fun () ->
                      Trace_codec.input_request_opt ~path ~base ic ~n);
                ic;
                owns = owns_channel;
                failed = None;
              };
          hdr = Some hdr;
          n;
          path;
        }
  in
  match build () with
  | src -> src
  | exception e ->
      if owns_channel then close_in_noerr ic;
      raise e

let of_region ~n path region =
  let hdr = Trace_codec.header_of_region ~path region in
  check_header ~path ~n hdr;
  { backend = Mapped { region; path }; hdr = Some hdr; n; path }

let magic_len = String.length Trace_codec.magic

let region_has_magic region =
  let found =
    match Binc.region_read_string region magic_len with
    | m -> String.equal m Trace_codec.magic
    | exception Invalid_argument _ -> false
  in
  Binc.region_seek region 0;
  found

(* [`Auto] sniffs the format once, from the bytes that are then served:
   the mapped region, or the first bytes of the channel the source keeps,
   sought back.  Only a regular, non-empty file is sniffed.  A pipe cannot
   give bytes back, so any other path reads as text, as stdin does. *)
let open_file ?(format = `Auto) ?(mmap = `Auto) ~n path =
  let channel format =
    of_channel ~path ~owns_channel:true ~format ~n (open_in_bin path)
  in
  match (format, mmap) with
  | `Text, _ -> channel `Text
  | `Binary, `On -> of_region ~n path (Trace_codec.map path)
  | `Binary, `Off -> channel `Binary
  | `Binary, `Auto ->
      if Trace_codec.can_map ~path then of_region ~n path (Trace_codec.map path)
      else channel `Binary
  | `Auto, _ when not (Trace_codec.can_map ~path) -> channel `Text
  | `Auto, (`Auto | `On) ->
      let region = Trace_codec.map path in
      if region_has_magic region then of_region ~n path region
      else channel `Text
  | `Auto, `Off -> (
      let ic = open_in_bin path in
      let sniff () =
        let head = Bytes.create magic_len in
        let rec fill got =
          if got = magic_len then got
          else
            match input ic head got (magic_len - got) with
            | 0 -> got
            | k -> fill (got + k)
        in
        let got = fill 0 in
        seek_in ic 0;
        if String.equal (Bytes.sub_string head 0 got) Trace_codec.magic then
          `Binary
        else `Text
      in
      match sniff () with
      | format -> of_channel ~path ~owns_channel:true ~format ~n ic
      | exception e ->
          close_in_noerr ic;
          raise e)

let next_batch t dst ~limit =
  if limit < 0 || limit > Array.length dst then
    fail ~path:t.path "next_batch: bad limit %d (buffer holds %d)" limit
      (Array.length dst);
  match t.backend with
  | Mapped m ->
      Trace_codec.decode_requests_into ~path:m.path m.region ~n:t.n dst ~limit
  | Channel c ->
      (* a decode error ends the stream: the requests pulled before it are
         delivered, and this call (when it pulled none) and every later
         one raise it, as the mmap backend does at a torn tail *)
      Option.iter raise c.failed;
      let got = ref 0 in
      (try
         let continue = ref (!got < limit) in
         while !continue do
           match c.next_req () with
           | Some e ->
               dst.(!got) <- e;
               incr got;
               continue := !got < limit
           | None -> continue := false
         done
       with Invalid_argument _ as err ->
         c.failed <- Some err;
         if !got = 0 then raise err);
      !got

let header t = t.hdr

let kind t =
  match t.backend with Channel _ -> `Channel | Mapped _ -> `Mmap

let close t =
  match t.backend with
  | Channel c -> if c.owns then close_in_noerr c.ic
  | Mapped _ -> ()

(* Verified in blocks: one next_batch pull per chunk, and the digest is
   the checkpoint's O(1)-per-request fold, so re-reading a long prefix
   costs a decode pass and no memory. *)
let consume_prefix t (ckpt : Checkpoint.t) =
  let total = ckpt.Checkpoint.pos in
  let chunk = Array.make (Stdlib.min 8192 (Stdlib.max 1 total)) 0 in
  let at = ref 0 and digest = ref Checkpoint.digest_empty in
  while !at < total do
    let want = Stdlib.min (Array.length chunk) (total - !at) in
    let got = next_batch t chunk ~limit:want in
    if got = 0 then
      failwith
        (Printf.sprintf
           "resume: trace ends at request %d but the checkpoint already \
            served %d requests"
           !at total);
    digest := Checkpoint.digest_block !digest ~pos:!at chunk got;
    at := !at + got
  done;
  if !digest <> ckpt.Checkpoint.digest then
    failwith
      (Printf.sprintf
         "resume: trace diverges from the checkpoint within its first %d \
          requests (trace digest %016x, checkpoint digest %016x)"
         total !digest ckpt.Checkpoint.digest)
