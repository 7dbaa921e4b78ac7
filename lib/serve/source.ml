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
  | Channel of { next_req : unit -> int option; ic : in_channel; owns : bool }
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

(* Each channel pull runs inside [Durable.retry_transient] with the fault
   layer's [before_read] hook in the same thunk: a transient EINTR/EAGAIN
   — real or injected — is retried with bounded attempts before it
   surfaces.  The retried thunk is built once per source, not per pull. *)
let wrap_reads next_req =
  let raw () =
    Fault.before_read ();
    next_req ()
  in
  fun () -> Durable.retry_transient raw

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
              };
          hdr = None;
          n;
          path;
        }
    | `Binary ->
        let hdr = Trace_codec.input_header ~path ic in
        check_header ~path ~n hdr;
        {
          backend =
            Channel
              {
                next_req =
                  wrap_reads (fun () ->
                      Trace_codec.input_request_opt ~path ic ~n);
                ic;
                owns = owns_channel;
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

let map_file ~n path =
  let region = Trace_codec.map path in
  let hdr = Trace_codec.header_of_region ~path region in
  check_header ~path ~n hdr;
  { backend = Mapped { region; path }; hdr = Some hdr; n; path }

let open_file ?(format = `Auto) ?(mmap = `Auto) ~n path =
  let format =
    match format with
    | (`Text | `Binary) as f -> f
    | `Auto -> if Trace_codec.looks_binary ~path then `Binary else `Text
  in
  match (format, mmap) with
  | `Binary, `On -> map_file ~n path
  | `Binary, `Auto when Trace_codec.can_map ~path -> map_file ~n path
  | `Binary, (`Auto | `Off) | `Text, _ ->
      of_channel ~path ~owns_channel:true ~format ~n (open_in_bin path)

(* An injected frame corruption must surface exactly like a real decode
   failure, so mangled values are re-validated here with an offset-bearing
   message. *)
let check_injected t e =
  if e < 0 || e >= t.n then
    fail ~path:t.path "injected corruption: edge %d out of [0, %d)" e t.n;
  e

let revalidate_batch t dst got =
  for j = 0 to got - 1 do
    if dst.(j) < 0 || dst.(j) >= t.n then
      fail ~path:t.path
        "injected corruption: edge %d out of [0, %d) at batch index %d"
        dst.(j) t.n j
  done

let next t =
  match t.backend with
  | Channel c ->
      let r = c.next_req () in
      if Fault.armed () then
        Option.map (fun e -> check_injected t (Fault.mangle_one e)) r
      else r
  | Mapped m ->
      if Fault.armed () then
        let r =
          Durable.retry_transient (fun () ->
              Fault.before_read ();
              Trace_codec.region_request_opt ~path:m.path m.region ~n:t.n)
        in
        Option.map (fun e -> check_injected t (Fault.mangle_one e)) r
      else Trace_codec.region_request_opt ~path:m.path m.region ~n:t.n

let next_batch t dst ~limit =
  if limit < 0 || limit > Array.length dst then
    fail ~path:t.path "next_batch: bad limit %d (buffer holds %d)" limit
      (Array.length dst);
  match t.backend with
  | Mapped m ->
      if Fault.armed () then begin
        let got =
          Durable.retry_transient (fun () ->
              Fault.before_read ();
              Trace_codec.decode_requests_into ~path:m.path m.region ~n:t.n
                dst ~limit)
        in
        if Fault.mangle_batch dst ~got then revalidate_batch t dst got;
        got
      end
      else
        Trace_codec.decode_requests_into ~path:m.path m.region ~n:t.n dst
          ~limit
  | Channel c ->
      let got = ref 0 in
      let continue = ref (!got < limit) in
      while !continue do
        match c.next_req () with
        | Some e ->
            dst.(!got) <- e;
            incr got;
            continue := !got < limit
        | None -> continue := false
      done;
      if Fault.armed () && Fault.mangle_batch dst ~got:!got then
        revalidate_batch t dst !got;
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
