(* Tests for the crash-safety layer:

   - CRC-32 against the standard check vector and incremental updates;
   - Durable.atomic_write / retry_transient semantics;
   - checkpoint integrity (CRC detection, torn records, refused old
     versions), and checkpoint files torn or bit-flipped after they were
     written;
   - rolling generations: write_rolling rotation and read_latest
     fallback past corrupt generations. *)

module Crc32 = Rbgp_util.Crc32
module Durable = Rbgp_util.Durable
module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

let with_tempdir f =
  let dir = Filename.temp_file "rbgp_fault" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry ->
          try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A small served engine to produce realistic checkpoints. *)
let engine_at ~alg ~steps =
  let n = 32 and ell = 4 in
  let inst = Instance.blocks ~n ~ell in
  let trace = gen_trace ~n ~steps ~seed:7 in
  let e = Engine.create ~alg ~seed:3 inst in
  Array.iter (fun q -> ignore (Engine.ingest e q)) trace;
  e

(* --- CRC-32 ----------------------------------------------------------- *)

let test_crc32 () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty input" 0 (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let oneshot = Crc32.string s in
  let split = Crc32.update (Crc32.string ~len:20 s) s ~pos:20
      ~len:(String.length s - 20)
  in
  Alcotest.(check int) "incremental == one-shot" oneshot split;
  Alcotest.(check bool) "corruption changes the sum" true
    (Crc32.string "123456788" <> oneshot);
  match Crc32.update 0 s ~pos:40 ~len:10 with
  | _ -> Alcotest.fail "out-of-bounds range accepted"
  | exception Invalid_argument _ -> ()

(* --- Durable ----------------------------------------------------------- *)

let test_atomic_write () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "blob" in
      Durable.atomic_write ~path "first";
      Alcotest.(check string) "written" "first"
        (In_channel.with_open_bin path In_channel.input_all);
      Durable.atomic_write ~path "second, longer";
      Alcotest.(check string) "atomically replaced" "second, longer"
        (In_channel.with_open_bin path In_channel.input_all);
      Alcotest.(check bool) "no tmp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_retry_transient () =
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", ""))
    else 42
  in
  Alcotest.(check int) "transient errors retried" 42
    (Durable.retry_transient flaky);
  Alcotest.(check int) "exactly three attempts" 3 !calls;
  (* a non-transient error propagates on the first attempt *)
  let hard = ref 0 in
  (match
     Durable.retry_transient (fun () ->
         incr hard;
         raise (Unix.Unix_error (Unix.ENOENT, "open", "gone")))
   with
  | _ -> Alcotest.fail "ENOENT treated as transient"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      Alcotest.(check int) "no retry for hard errors" 1 !hard);
  (* bounded attempts: a persistent EINTR eventually surfaces *)
  let spins = ref 0 in
  match
    Durable.retry_transient ~attempts:5 (fun () ->
        incr spins;
        raise (Unix.Unix_error (Unix.EAGAIN, "read", "")))
  with
  | _ -> Alcotest.fail "persistent EAGAIN absorbed forever"
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
      Alcotest.(check int) "attempt budget honoured" 5 !spins

(* --- checkpoint integrity ---------------------------------------------- *)

let test_crc_detects_corruption () =
  let e = engine_at ~alg:"onl-dynamic" ~steps:120 in
  let data = Ckpt.to_string (Engine.checkpoint e) in
  (* round-trips clean *)
  ignore (Ckpt.of_string data);
  (* any flipped byte in the body or trailer must be caught *)
  List.iter
    (fun frac ->
      let i = String.length data * frac / 100 in
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      match Ckpt.of_string (Bytes.to_string b) with
      | _ -> Alcotest.failf "corruption at byte %d accepted" i
      | exception Invalid_argument _ -> ())
    [ 20; 50; 80; 99 ];
  (* a flipped version byte (3 -> 2) is corruption, not an old file *)
  let b = Bytes.of_string data in
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 0x01));
  (match Ckpt.of_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "flipped version byte accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "flipped version caught by the CRC" true
        (Astring.String.is_infix ~affix:"CRC" msg));
  (* torn records are named as such *)
  match Ckpt.of_string (String.sub data 0 (String.length data - 7)) with
  | _ -> Alcotest.fail "torn record accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error mentions the tear or the trailer" true
        (Astring.String.is_infix ~affix:"torn" msg
        || Astring.String.is_infix ~affix:"CRC" msg)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Genuine records written by the last prefix-replay release (a
   greedy-colocate run on n = 8, ell = 2 after four requests): version 1
   without a trailer, version 2 with a valid CRC.  Both must be refused
   by version, not misread as corrupt or as state. *)
let v1_record =
  of_hex
    "52424743010f6772656564792d636f6c6f6361746506307831702d3106080204080000\
     00000202020204040606000a010204000800000002020202000123010f677265656479\
     2d636f6c6f63617465080000000202020200080000000000000000"

let v2_record =
  of_hex
    "52424743020f6772656564792d636f6c6f6361746506307831702d3106080204080000\
     00000202020204040606000a010204000800000002020202000123010f677265656479\
     2d636f6c6f636174650800000002020202000800000000000000000000b2df0984"

let test_older_versions_rejected () =
  List.iter
    (fun (v, raw) ->
      match Ckpt.of_string ~path:"old.ckpt" raw with
      | _ -> Alcotest.failf "version %d record accepted" v
      | exception Invalid_argument msg ->
          let names affix = Astring.String.is_infix ~affix msg in
          Alcotest.(check bool)
            (Printf.sprintf "message %S names version %d and the path" msg v)
            true
            (names (Printf.sprintf "version %d" v) && names "old.ckpt"))
    [ (1, v1_record); (2, v2_record) ];
  (* and a version from the future is refused as unsupported *)
  let e = engine_at ~alg:"never-move" ~steps:10 in
  let b = Bytes.of_string (Ckpt.to_string (Engine.checkpoint e)) in
  Bytes.set b 4 '\x09';
  match Ckpt.of_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "version 9 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "future version named" true
        (Astring.String.is_infix ~affix:"version 9" msg)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* The faults a disk or a crash leaves behind, injected into a written
   file: a flipped bit (silent media corruption) fails the CRC, a torn
   tail (a write that never finished) fails the decode, and a clean
   rewrite over either verifies again. *)
let test_injected_tear_and_flip () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "run.ckpt" in
      let ckpt = Engine.checkpoint (engine_at ~alg:"onl-static" ~steps:100) in
      Ckpt.write ~path ckpt;
      let raw = read_file path in
      List.iter
        (fun bit ->
          let b = Bytes.of_string raw in
          let i = bit lsr 3 in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
          write_file path (Bytes.to_string b);
          match Ckpt.verify ~path with
          | Ok _ -> Alcotest.failf "checkpoint with bit %d flipped verified" bit
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "flip of bit %d caught by the CRC" bit)
                true
                (Astring.String.is_infix ~affix:"CRC" msg))
        [ 8 * 5; (8 * String.length raw / 2) + 3; (8 * String.length raw) - 1 ];
      List.iter
        (fun keep ->
          write_file path (String.sub raw 0 keep);
          match Ckpt.verify ~path with
          | Ok _ -> Alcotest.failf "checkpoint torn to %d bytes verified" keep
          | Error _ -> ())
        [ 0; 40; String.length raw - 1 ];
      Ckpt.write ~path ckpt;
      match Ckpt.verify ~path with
      | Ok back ->
          Alcotest.(check string) "clean rewrite" (Ckpt.to_string ckpt)
            (Ckpt.to_string back)
      | Error msg -> Alcotest.failf "clean rewrite failed: %s" msg)

(* --- rolling generations ----------------------------------------------- *)

let test_rolling_generations_and_fallback () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "run.ckpt" in
      let snapshot steps =
        Engine.checkpoint (engine_at ~alg:"counter-threshold" ~steps)
      in
      let c1 = snapshot 40 and c2 = snapshot 80 and c3 = snapshot 120 in
      Ckpt.write_rolling ~path ~keep:3 c1;
      Ckpt.write_rolling ~path ~keep:3 c2;
      Ckpt.write_rolling ~path ~keep:3 c3;
      Alcotest.(check bool) "three generations on disk" true
        (Sys.file_exists path
        && Sys.file_exists (path ^ ".1")
        && Sys.file_exists (path ^ ".2"));
      let r = Ckpt.read_latest ~path () in
      Alcotest.(check int) "newest generation wins" 0 r.Ckpt.generation;
      Alcotest.(check int) "and holds the newest snapshot" 120
        r.Ckpt.ckpt.Ckpt.pos;
      (* tear generation 0: fallback must land on generation 1 *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub raw 0 (String.length raw / 2)));
      let r = Ckpt.read_latest ~path () in
      Alcotest.(check int) "fallback generation" 1 r.Ckpt.generation;
      Alcotest.(check int) "fallback snapshot" 80 r.Ckpt.ckpt.Ckpt.pos;
      Alcotest.(check int) "the torn generation is reported" 1
        (List.length r.Ckpt.skipped);
      (* corrupt every generation: recovery must fail loudly *)
      List.iter
        (fun p ->
          Out_channel.with_open_bin p (fun oc ->
              Out_channel.output_string oc "not a checkpoint"))
        [ path; path ^ ".1"; path ^ ".2" ];
      match Ckpt.read_latest ~path () with
      | _ -> Alcotest.fail "recovery from all-corrupt generations"
      | exception (Invalid_argument _ | Failure _) -> ())

let () =
  Alcotest.run "fault"
    [
      ( "integrity",
        [
          Alcotest.test_case "crc32 vectors and updates" `Quick test_crc32;
          Alcotest.test_case "atomic_write" `Quick test_atomic_write;
          Alcotest.test_case "retry_transient" `Quick test_retry_transient;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "CRC trailer detects corruption" `Quick
            test_crc_detects_corruption;
          Alcotest.test_case "older versions rejected by name" `Quick
            test_older_versions_rejected;
          Alcotest.test_case "injected tear and flip" `Quick
            test_injected_tear_and_flip;
          Alcotest.test_case "rolling generations + fallback" `Quick
            test_rolling_generations_and_fallback;
        ] );
    ]
