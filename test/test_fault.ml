(* Tests for the crash-safety layer:

   - CRC-32 against the standard check vector and incremental updates;
   - Durable.atomic_write / retry_transient semantics;
   - fault-plan parsing (including malformed specs) and the determinism
     of the seeded probabilistic faults;
   - checkpoint v2 integrity (CRC detection, torn records, v1 compat)
     and the injected tear / bit-flip write paths;
   - rolling generations: write_rolling rotation and read_latest
     fallback past corrupt generations. *)

module Crc32 = Rbgp_util.Crc32
module Durable = Rbgp_util.Durable
module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Fault = Rbgp_serve.Fault
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

(* Every fault test must leave the process-global plan disarmed. *)
let with_faults spec f =
  Fault.configure spec;
  Fun.protect ~finally:Fault.disable f

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

(* --- fault plan parsing ------------------------------------------------ *)

let test_spec_parsing () =
  Alcotest.(check bool) "disarmed by default" false (Fault.armed ());
  with_faults "crash@5,read-eintr:0.25,solver-stall@9:77,seed=12" (fun () ->
      Alcotest.(check bool) "armed" true (Fault.armed ()));
  Alcotest.(check bool) "disabled again" false (Fault.armed ());
  Fault.configure "";
  Alcotest.(check bool) "empty spec disarms" false (Fault.armed ());
  List.iter
    (fun bad ->
      match Fault.configure bad with
      | () -> Alcotest.failf "malformed spec %S accepted" bad
      | exception Invalid_argument _ -> ())
    [ "bogus"; "crash@"; "crash@x"; "read-eintr:nope"; "read-eintr:1.5";
      "ckpt-tear@0"; "solver-stall@3:"; "seed="; "crash@5@6" ]

let test_counted_faults_fire_once () =
  with_faults "crash@5" (fun () ->
      Fault.crash_check ~step:4;
      (match Fault.crash_check ~step:5 with
      | () -> Alcotest.fail "crash@5 did not fire"
      | exception Fault.Injected_crash _ -> ());
      (* fired faults disarm: a supervised restart re-serving past the
         same index must not die again *)
      Fault.crash_check ~step:5);
  with_faults "solver-stall@7:123" (fun () ->
      Alcotest.(check int) "no stall before the index" 0
        (Fault.solver_stall_ns ~step:6);
      Alcotest.(check int) "stall fires with its budget" 123
        (Fault.solver_stall_ns ~step:7);
      Alcotest.(check int) "stall is one-shot" 0
        (Fault.solver_stall_ns ~step:7))

let test_request_fault_pending () =
  with_faults "crash@10" (fun () ->
      Alcotest.(check bool) "inside the block" true
        (Fault.request_fault_pending ~lo:8 ~hi:16);
      Alcotest.(check bool) "below the block" false
        (Fault.request_fault_pending ~lo:0 ~hi:10);
      Alcotest.(check bool) "above the block" false
        (Fault.request_fault_pending ~lo:11 ~hi:20));
  Alcotest.(check bool) "disarmed plans have nothing pending" false
    (Fault.request_fault_pending ~lo:0 ~hi:max_int)

let test_probabilistic_determinism () =
  let schedule () =
    with_faults "read-eintr:0.4,read-eagain:0.2,seed=99" (fun () ->
        List.init 200 (fun _ ->
            match Fault.before_read () with
            | () -> 'n'
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> 'i'
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                'a'))
  in
  let a = schedule () and b = schedule () in
  Alcotest.(check bool) "same seed, same fault schedule" true (a = b);
  Alcotest.(check bool) "faults actually fire" true (List.mem 'i' a);
  Alcotest.(check bool) "reads actually succeed" true (List.mem 'n' a)

let test_read_flip () =
  with_faults "read-flip@2" (fun () ->
      let dst = [| 1; 2; 3; 4; 5 |] in
      Alcotest.(check bool) "batch containing the ordinal is mangled" true
        (Fault.mangle_batch dst ~got:5);
      Alcotest.(check bool) "the planned slot changed" true (dst.(2) <> 3);
      Alcotest.(check int) "neighbours untouched" 2 dst.(1);
      let dst2 = [| 1; 2; 3 |] in
      Alcotest.(check bool) "flip is one-shot" false
        (Fault.mangle_batch dst2 ~got:3))

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

let test_injected_tear_and_flip () =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "run.ckpt" in
      let e = engine_at ~alg:"onl-static" ~steps:100 in
      let ckpt = Engine.checkpoint e in
      (* a flipped write lands (atomically) but fails verification *)
      with_faults "ckpt-flip@1" (fun () ->
          Ckpt.write ~path ckpt;
          (match Ckpt.verify ~path with
          | Ok _ -> Alcotest.fail "bit-flipped checkpoint verified"
          | Error msg ->
              Alcotest.(check bool) "flip caught by CRC" true
                (Astring.String.is_infix ~affix:"CRC" msg));
          (* the fault disarms: the next write is clean *)
          Ckpt.write ~path ckpt;
          match Ckpt.verify ~path with
          | Ok back -> Alcotest.(check int) "clean rewrite" ckpt.Ckpt.pos
              back.Ckpt.pos
          | Error msg -> Alcotest.failf "clean rewrite failed: %s" msg);
      (* a torn write dies mid-write and leaves a truncated final file *)
      with_faults "ckpt-tear@1:40" (fun () ->
          (match Ckpt.write ~path ckpt with
          | () -> Alcotest.fail "torn write did not kill the process"
          | exception Fault.Injected_crash _ -> ());
          Alcotest.(check int) "exactly the torn prefix on disk" 40
            (let ic = open_in_bin path in
             Fun.protect
               ~finally:(fun () -> close_in ic)
               (fun () -> in_channel_length ic));
          match Ckpt.verify ~path with
          | Ok _ -> Alcotest.fail "torn checkpoint verified"
          | Error _ -> ()))

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
      ( "plan",
        [
          Alcotest.test_case "spec parsing + malformed specs" `Quick
            test_spec_parsing;
          Alcotest.test_case "counted faults fire once" `Quick
            test_counted_faults_fire_once;
          Alcotest.test_case "request_fault_pending windows" `Quick
            test_request_fault_pending;
          Alcotest.test_case "seeded faults are deterministic" `Quick
            test_probabilistic_determinism;
          Alcotest.test_case "read-flip mangles one request" `Quick
            test_read_flip;
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
