(* The networked serving tier, end to end and in process.

   The framing suite holds the byte queue to its contract: a multi-frame
   byte stream split at EVERY byte boundary — and at random boundaries
   under qcheck — reassembles frame for frame into the unsplit sequence,
   and both frame writers ([put_frame], [put_req]) write exactly the
   frames built here from [Binc] varints, however the queue they write
   into is drained.

   The isolation suite is the tentpole's acceptance criterion: two
   tenants interleaved over one socket connection produce decisions,
   final totals and checkpoint bytes identical to two engines run in
   isolation (the pipe-mode baseline), including after a supervised
   mid-connection engine kill followed by reconnect-and-resume.  Both
   ends of the socket run in this process: the client's [pump] callback
   single-steps the server whenever the client would block.

   The HTTP suite pins the observability contract: /metrics (Prometheus
   text exposition), /tenants (JSON) and the per-tenant metric
   snapshots all report the same numbers. *)

module Rng = Rbgp_util.Rng
module Instance = Rbgp_ring.Instance
module Trace = Rbgp_ring.Trace
module Workloads = Rbgp_workloads.Workloads
module Engine = Rbgp_serve.Engine
module Ckpt = Rbgp_serve.Checkpoint
module Fault = Rbgp_serve.Fault
module Metrics = Rbgp_serve.Metrics
module Proto = Rbgp_serve.Proto
module Tenant = Rbgp_serve.Tenant
module Http = Rbgp_serve.Http
module Net = Rbgp_serve.Net

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fixed = function Trace.Fixed a -> a | Trace.Adaptive _ -> assert false

let gen_trace ~n ~steps ~seed =
  fixed (Workloads.rotating ~n ~steps (Rng.create seed))

(* Every decision field except the wall-clock latency. *)
let decision_key (d : Engine.decision) =
  Printf.sprintf "%d|%d|%d|%d|%d|%d|%d" d.Engine.step d.Engine.edge
    d.Engine.comm d.Engine.moved d.Engine.cum_comm d.Engine.cum_mig
    d.Engine.max_load

let with_tempdir f =
  let dir = Filename.temp_file "rbgp_net" ".d" in
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

(* --- framing: split-anywhere reassembly and the frame writers --------- *)

(* A whole frame by definition: header varints, then the payload. *)
let reference_frame ~stream op payload =
  let b = Buffer.create (String.length payload + 12) in
  Rbgp_util.Binc.add_varint b stream;
  Rbgp_util.Binc.add_varint b (Proto.op_to_int op);
  Rbgp_util.Binc.add_varint b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let frame_key (f : Proto.frame) =
  Printf.sprintf "%d|%d|%S" f.Proto.stream
    (Proto.op_to_int f.Proto.op)
    f.Proto.payload

let encode_frames frames =
  String.concat ""
    (List.map
       (fun (stream, op, payload) -> reference_frame ~stream op payload)
       frames)

(* Take the first [n] queued bytes off [q], as a socket write would. *)
let take ?n q =
  let n = Option.value n ~default:q.Proto.len in
  let s = Bytes.sub_string q.Proto.buf q.Proto.start n in
  Proto.consume q n;
  s

let drain_frames d =
  let rec go acc =
    match Proto.next d with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

(* Feed [wire] in pieces cut at [cuts] (sorted positions), pulling
   complete frames after every piece exactly as the serve loop does. *)
let reassemble wire cuts =
  let d = Proto.queue () in
  let acc = ref [] in
  let prev = ref 0 in
  List.iter
    (fun cut ->
      Proto.feed_string d (String.sub wire !prev (cut - !prev));
      acc := !acc @ drain_frames d;
      prev := cut)
    (cuts @ [ String.length wire ]);
  if d.Proto.len <> 0 then
    Alcotest.failf "the queue parked %d bytes of a complete stream" d.Proto.len;
  !acc

let sample_frames =
  [
    (0, Proto.Hello, "RBGN\001");
    (1, Proto.Open_stream, "tenant-config-bytes");
    (1, Proto.Req, String.init 40 (fun i -> Char.chr (i * 3 mod 256)));
    (2, Proto.Req_quiet, "");
    (1, Proto.Decisions, String.make 120 '\xff');
    (0, Proto.Draining, "");
    (7, Proto.Closed, "totals");
  ]

let test_dechunker_every_boundary () =
  let wire = encode_frames sample_frames in
  let want = List.map frame_key (reassemble wire []) in
  Alcotest.(check int)
    "unsplit decode yields every frame" (List.length sample_frames)
    (List.length want);
  for cut = 0 to String.length wire do
    let got = List.map frame_key (reassemble wire [ cut ]) in
    if not (List.equal String.equal want got) then
      Alcotest.failf "split at byte %d changed the frame sequence" cut
  done

let test_dechunker_byte_at_a_time () =
  let wire = encode_frames sample_frames in
  let want = List.map frame_key (reassemble wire []) in
  let cuts = List.init (String.length wire) (fun i -> i + 1) in
  let got = List.map frame_key (reassemble wire cuts) in
  Alcotest.(check (list string)) "byte-at-a-time identical" want got

let gen_wire_and_cuts =
  QCheck2.Gen.(
    let frame =
      triple (int_range 0 1000)
        (map Proto.op_of_int (int_range 1 14))
        (string_size ~gen:char (int_range 0 300))
    in
    let* frames = list_size (int_range 1 12) frame in
    let wire = encode_frames frames in
    let* cuts =
      list_size (int_range 0 20) (int_range 0 (String.length wire))
    in
    return (frames, wire, List.sort_uniq Int.compare cuts))

let qcheck_dechunker_random_splits =
  qtest ~count:300 "qcheck: random splits reassemble frame-for-frame"
    gen_wire_and_cuts
    (fun (frames, wire, cuts) ->
      let got = List.map frame_key (reassemble wire cuts) in
      let want =
        List.map (fun (stream, op, payload) ->
            frame_key { Proto.stream; op; payload })
          frames
      in
      List.equal String.equal want got)

(* [put_frame] appends the reference frame from one reused payload
   buffer, which it empties, whatever the queue holds: between frames a
   socket write takes a chosen number of bytes off the front, so frames
   land after a parked tail, at a moved window and in a grown buffer. *)
let qcheck_put_frame =
  qtest ~count:300 "qcheck: put_frame == reference frames, partly drained"
    QCheck2.Gen.(
      let frame =
        triple (int_range 0 1000)
          (map Proto.op_of_int (int_range 1 14))
          (string_size ~gen:char
             (frequency [ (4, int_range 0 300); (1, int_range 3000 9000) ]))
      in
      pair (list_size (int_range 1 12) frame)
        (list_size (return 12) (int_range 0 10_000)))
    (fun (frames, takes) ->
      let q = Proto.queue () and payload = Buffer.create 16 in
      let out = Buffer.create 1024 in
      List.iteri
        (fun i (stream, op, p) ->
          Buffer.add_string payload p;
          Proto.put_frame q ~stream op payload;
          if Buffer.length payload <> 0 then Alcotest.fail "payload kept";
          let n = List.nth takes i mod (q.Proto.len + 1) in
          Buffer.add_string out (take ~n q))
        frames;
      Buffer.add_string out (take q);
      String.equal (Buffer.contents out) (encode_frames frames))

let test_put_frame_limits () =
  let q = Proto.queue () and payload = Buffer.create 16 in
  Buffer.add_string payload (String.make (Proto.max_payload + 1) 'x');
  Alcotest.check_raises "an oversized payload is refused"
    (Proto.Protocol_error
       (Printf.sprintf "payload %d over limit" (Proto.max_payload + 1)))
    (fun () -> Proto.put_frame q ~stream:1 Proto.Decisions payload);
  Buffer.add_string payload "abc";
  Alcotest.check_raises "a negative stream is refused"
    (Invalid_argument "Binc.add_varint: negative") (fun () ->
      Proto.put_frame q ~stream:(-1) Proto.Ack payload);
  Alcotest.(check (pair int int)) "nothing queued, the payload emptied" (0, 0)
    (q.Proto.len, Buffer.length payload);
  Buffer.add_string payload "ok";
  Proto.put_frame q ~stream:3 Proto.Ack payload;
  Alcotest.(check string) "the next frame is whole"
    (reference_frame ~stream:3 Proto.Ack "ok") (take q)

let test_dechunker_rejects_garbage () =
  (* A varint that never terminates within 10 bytes is unrepairable. *)
  let d = Proto.queue () in
  Alcotest.check_raises "varint overflow raises"
    (Proto.Protocol_error "varint over 63 bits") (fun () ->
      Proto.feed_string d (String.make 11 '\xff');
      ignore (Proto.next d))

(* --- request codec ------------------------------------------------------ *)

(* The request codec against its definition: a frame over a payload of
   [Binc] edge varints, read back one [Binc.read_varint] at a time.
   Edges straddle every varint length, and arbitrary byte strings
   (truncated or over-long varints among them) must decode, or fail,
   exactly as the reference does. *)
let reference_req_payload edges ~pos ~len =
  let b = Buffer.create 16 in
  for i = pos to pos + len - 1 do
    Rbgp_util.Binc.add_varint b edges.(i)
  done;
  Buffer.contents b

let reference_read_req payload =
  let r = Rbgp_util.Binc.reader payload in
  let out = ref [] in
  match
    while not (Rbgp_util.Binc.at_end r) do
      out := Rbgp_util.Binc.read_varint r :: !out
    done
  with
  | () -> Ok (Array.of_list (List.rev !out))
  | exception Invalid_argument m -> Error ("req: " ^ m)

let gen_edge =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 1023;
        map (fun k -> (1 lsl (7 * k)) - 1) (int_range 1 8);
        map (fun k -> 1 lsl (7 * k)) (int_range 1 8);
        int_range 0 max_int;
      ])

let decoded es = Ok (Array.sub es.Proto.arr 0 es.Proto.count)

(* A request payload as the server decodes it: straight from a queue's
   window into the edge buffer. *)
let decode es payload =
  let d = Proto.queue () in
  Proto.feed_string d (reference_frame ~stream:1 Proto.Req payload);
  match Proto.next_req d es with
  | Some _ -> decoded es
  | None -> Error "frame not delivered"
  | exception Proto.Protocol_error m -> Error m

let qcheck_req_codec =
  qtest ~count:500 "qcheck: request frames and payloads == Binc varints"
    QCheck2.Gen.(
      let* edges = array_size (int_range 0 300) gen_edge in
      let n = Array.length edges in
      let* pos = int_range 0 n in
      let* len = int_range 0 (n - pos) in
      let* stream = int_range 0 100_000 in
      let* junk = string_size ~gen:char (int_range 0 40) in
      return (edges, pos, len, stream, junk))
    (fun (edges, pos, len, stream, junk) ->
      let payload = reference_req_payload edges ~pos ~len in
      let out = Proto.queue () and es = Proto.edge_buf () in
      Proto.put_req out ~stream Proto.Req_quiet edges ~pos ~len;
      List.for_all Fun.id
        [
          take out = reference_frame ~stream Proto.Req_quiet payload;
          decode es payload = Ok (Array.sub edges pos len);
          decode es junk = reference_read_req junk;
          decode es (payload ^ junk) = reference_read_req (payload ^ junk);
          decode es (payload ^ "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")
          = reference_read_req
              (payload ^ "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01");
        ])

(* One client output queue and one server-side input queue and edge
   buffer, the state a client and a connection keep, carry a whole
   sequence of batches: empty ones, edges of 3 bytes and more, batches
   that grow the buffers and then shorter ones that must not see the
   longer ones' stale edges.  Each frame reaches the server's window in
   two pieces.  Between the batches, junk payloads decode (or fail, at the
   same byte) into the same edge buffer exactly as the Binc reference
   does. *)
let qcheck_req_codec_reused =
  let batch =
    QCheck2.Gen.(
      let* size =
        frequency
          [ (1, return 0); (4, int_range 1 64); (2, int_range 1000 5000) ]
      in
      array_size (return size) gen_edge)
  in
  qtest ~count:60
    "qcheck: reused request buffers == Binc varints, frame by frame"
    QCheck2.Gen.(
      let* grow = list_size (int_range 1 6) batch in
      let* shrink =
        list_size (int_range 1 4) (array_size (int_range 0 20) gen_edge)
      in
      let* junk =
        list_size (int_range 1 6) (string_size ~gen:char (int_range 0 24))
      in
      let* cuts = list_size (return 10) (int_range 0 1_000_000) in
      return (grow @ shrink, junk, cuts))
    (fun (batches, junk, cuts) ->
      let out = Proto.queue () in
      let d = Proto.queue () and es = Proto.edge_buf () in
      let cut i len = List.nth cuts (i mod List.length cuts) mod (len + 1) in
      let frame_ok i edges =
        let len = Array.length edges and stream = 1 + (i mod 3) in
        let op = if i land 1 = 0 then Proto.Req else Proto.Req_quiet in
        Proto.put_req out ~stream op edges ~pos:0 ~len;
        let wire = take out in
        let at = cut i (String.length wire) in
        Proto.feed_string d (String.sub wire 0 at);
        let early = Proto.next_req d es in
        Proto.feed_string d (String.sub wire at (String.length wire - at));
        let f =
          match early with Some f -> Some f | None -> Proto.next_req d es
        in
        let got = decoded es in
        Proto.trim_edges es;
        wire
        = reference_frame ~stream op (reference_req_payload edges ~pos:0 ~len)
        && (match f with
           | Some f ->
               f.Proto.stream = stream
               && Proto.op_to_int f.Proto.op = Proto.op_to_int op
               && String.equal f.Proto.payload ""
           | None -> false)
        && got = Ok edges
        && d.Proto.len = 0
      in
      let junk_ok j = decode es j = reference_read_req j in
      List.for_all Fun.id (List.mapi frame_ok batches)
      && List.for_all junk_ok junk
      && List.for_all Fun.id (List.mapi frame_ok (List.rev batches)))

(* A batch above the retained size grows the buffers for its own frame
   only: both queues (over 1 MiB for this frame) go back to 4 KiB once
   empty, trimming releases the edge array, and the next, ordinary frame
   decodes exactly through buffers that are then kept. *)
let test_req_buffers_retention () =
  let big = Array.init 400_000 (fun i -> 16_384 + (i * 7919 mod 3_000)) in
  let small = [| 3; 200; 70_000 |] in
  let out = Proto.queue () in
  let d = Proto.queue () and es = Proto.edge_buf () in
  let roundtrip edges =
    Proto.put_req out ~stream:1 Proto.Req_quiet edges ~pos:0
      ~len:(Array.length edges);
    Proto.feed_string d (take out);
    ignore (Proto.next_req d es);
    Alcotest.(check (array int)) "batch decoded" edges
      (Array.sub es.Proto.arr 0 es.Proto.count)
  in
  roundtrip big;
  Alcotest.(check bool) "the large batch grew the edge array" true
    (Array.length es.Proto.arr >= 400_000);
  Alcotest.(check (pair int int)) "both emptied queues went back to 4 KiB"
    (4096, 4096)
    (Bytes.length out.Proto.buf, Bytes.length d.Proto.buf);
  Proto.trim_edges es;
  Alcotest.(check int) "edge array released" 0 (Array.length es.Proto.arr);
  roundtrip small;
  Proto.trim_edges es;
  let kept = out.Proto.buf and arr = es.Proto.arr in
  roundtrip small;
  Proto.trim_edges es;
  Alcotest.(check bool) "an ordinary batch's buffers are kept" true
    (out.Proto.buf == kept && es.Proto.arr == arr && Array.length arr >= 3)

(* --- in-process server + client ---------------------------------------- *)

let next_sock =
  let c = ref 0 in
  fun dir ->
    incr c;
    Filename.concat dir (Printf.sprintf "s%d.sock" !c)

let with_server ?(supervise = false) ?checkpoint_every ~dir f =
  let router =
    Tenant.create ~checkpoint_dir:dir
      ?checkpoint_every ~checkpoint_keep:3 ()
  in
  let addr = Net.Unix_sock (next_sock dir) in
  let server = Net.server ~supervise ~router addr in
  Fun.protect
    ~finally:(fun () -> Net.shutdown server)
    (fun () -> f router server addr)

(* The lowest free descriptor: a listener left open would hold it. *)
let next_fd () =
  let fd = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
  Unix.close fd;
  fd

(* A socket that cannot be bound is one Sys_error naming the address:
   the RPC address under a missing directory, or a good RPC address with
   the HTTP one there.  Either way nothing stays open or on disk. *)
let test_listen_error_names_address () =
  let missing = Filename.temp_file "rbgp_nodir" "" in
  Sys.remove missing;
  let bad = Net.Unix_sock (Filename.concat missing "s.sock") in
  let rpc_path = Filename.temp_file "rbgp_rpc" ".sock" in
  Sys.remove rpc_path;
  let want =
    Printf.sprintf "listen %s: %s" (Net.addr_to_string bad)
      (Unix.error_message Unix.ENOENT)
  in
  List.iter
    (fun (addr, http) ->
      let fd = next_fd () in
      (match Net.server ?http ~router:(Tenant.create ()) addr with
      | server ->
          Net.shutdown server;
          Alcotest.fail "listened under a missing directory"
      | exception Sys_error msg -> Alcotest.(check string) "message" want msg);
      Alcotest.(check bool) "no listener left open" true (next_fd () = fd);
      Alcotest.(check bool) "no socket file left" false
        (Sys.file_exists rpc_path))
    [ (bad, None); (Net.Unix_sock rpc_path, Some bad) ]

let connect_pumped server addr =
  Net.connect ~pump:(fun () -> ignore (Net.step server)) addr

let open_cfg ~tenant ~alg ~seed ~n ~ell =
  { Proto.tenant; alg; n; ell; epsilon = 0.5; seed }

(* Reference: the same tenant served by a directly-driven engine. *)
let reference_run ~alg ~seed ~n ~ell trace =
  let engine =
    Engine.create ~epsilon:0.5 ~alg ~seed (Instance.blocks ~n ~ell)
  in
  let decisions = Array.map (Engine.ingest engine) trace in
  (Array.to_list decisions, Engine.result engine, Engine.checkpoint engine)

let batches_of trace ~batch =
  let rec go pos acc =
    if pos >= Array.length trace then List.rev acc
    else
      let len = Stdlib.min batch (Array.length trace - pos) in
      go (pos + len) (Array.sub trace pos len :: acc)
  in
  go 0 []

let test_two_tenants_isolated () =
  let n = 128 and ell = 8 and steps = 600 in
  let trace_a = gen_trace ~n ~steps ~seed:11 in
  let trace_b = gen_trace ~n ~steps ~seed:12 in
  let ref_a = reference_run ~alg:"onl-dynamic" ~seed:1 ~n ~ell trace_a in
  let ref_b = reference_run ~alg:"greedy-colocate" ~seed:2 ~n ~ell trace_b in
  with_tempdir (fun dir ->
      with_server ~dir ~checkpoint_every:100 (fun router server addr ->
          let cl = connect_pumped server addr in
          let pos_a =
            Net.open_stream cl ~stream:1
              (open_cfg ~tenant:"a" ~alg:"onl-dynamic" ~seed:1 ~n ~ell)
          and pos_b =
            Net.open_stream cl ~stream:2
              (open_cfg ~tenant:"b" ~alg:"greedy-colocate" ~seed:2 ~n ~ell)
          in
          Alcotest.(check (pair int int)) "fresh tenants start at 0" (0, 0)
            (pos_a, pos_b);
          (* interleave: one batch per tenant per round, over one wire *)
          let got_a = ref [] and got_b = ref [] in
          List.iter2
            (fun ba bb ->
              let da = Net.request cl ~stream:1 ba ~pos:0 ~len:(Array.length ba)
              and db =
                Net.request cl ~stream:2 bb ~pos:0 ~len:(Array.length bb)
              in
              got_a := !got_a @ Array.to_list da;
              got_b := !got_b @ Array.to_list db)
            (batches_of trace_a ~batch:97)
            (batches_of trace_b ~batch:97);
          let check_tenant name tid (ref_ds, ref_result, ref_ckpt) got =
            Alcotest.(check (list string))
              (name ^ ": decisions identical to the isolated engine")
              (List.map decision_key ref_ds)
              (List.map decision_key got);
            (match Tenant.find router tid with
            | Some tn -> (
                match Tenant.engine tn with
                | Some engine ->
                    Alcotest.(check string)
                      (name ^ ": checkpoint bytes identical")
                      (Ckpt.to_string ref_ckpt)
                      (Ckpt.to_string (Engine.checkpoint engine))
                | None -> Alcotest.fail (name ^ ": engine released early"))
            | None -> Alcotest.fail (name ^ ": tenant missing"));
            let closed =
              Net.close_stream cl
                ~stream:(if String.equal tid "a" then 1 else 2)
            in
            let cost = ref_result.Rbgp_ring.Simulator.cost in
            Alcotest.(check (list int))
              (name ^ ": closed totals match the isolated result")
              [
                ref_result.Rbgp_ring.Simulator.steps;
                cost.Rbgp_ring.Cost.comm;
                cost.Rbgp_ring.Cost.mig;
                ref_result.Rbgp_ring.Simulator.max_load;
              ]
              [
                closed.Proto.closed_pos;
                closed.Proto.closed_comm;
                closed.Proto.closed_mig;
                closed.Proto.closed_max_load;
              ]
          in
          check_tenant "tenant a" "a" ref_a !got_a;
          check_tenant "tenant b" "b" ref_b !got_b;
          Net.close cl))

let test_quiet_path_identity () =
  let n = 128 and ell = 8 and steps = 500 in
  let trace = gen_trace ~n ~steps ~seed:21 in
  let _, ref_result, ref_ckpt =
    reference_run ~alg:"onl-dynamic" ~seed:5 ~n ~ell trace
  in
  with_tempdir (fun dir ->
      with_server ~dir (fun router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"q" ~alg:"onl-dynamic" ~seed:5 ~n ~ell));
          let last = ref None in
          List.iter
            (fun b ->
              last :=
                Some (Net.request_quiet cl ~stream:1 b ~pos:0 ~len:(Array.length b)))
            (batches_of trace ~batch:128);
          (match !last with
          | Some ack ->
              let cost = ref_result.Rbgp_ring.Simulator.cost in
              Alcotest.(check (list int))
                "final ack totals match the isolated result"
                [ steps; cost.Rbgp_ring.Cost.comm; cost.Rbgp_ring.Cost.mig ]
                [ ack.Proto.pos; ack.Proto.cum_comm; ack.Proto.cum_mig ]
          | None -> Alcotest.fail "no ack received");
          (match Tenant.find router "q" with
          | Some tn -> (
              match Tenant.engine tn with
              | Some engine ->
                  Alcotest.(check string)
                    "quiet-path checkpoint identical to decision-path"
                    (Ckpt.to_string ref_ckpt)
                    (Ckpt.to_string (Engine.checkpoint engine))
              | None -> Alcotest.fail "engine released early")
          | None -> Alcotest.fail "tenant missing");
          Net.close cl))

(* The server decodes every batch into one edge buffer that its
   connection keeps: a 4096-edge batch followed by a 10-edge one must
   bill exactly 10 edges the second time, so the tenant ends in the
   checkpoint of a pipe-mode engine fed the same two batches. *)
let test_short_batch_after_long () =
  let n = 128 and ell = 8 in
  let long = gen_trace ~n ~steps:4096 ~seed:51 in
  let short = gen_trace ~n ~steps:10 ~seed:52 in
  let twin =
    Engine.create ~epsilon:0.5 ~alg:"onl-dynamic" ~seed:4
      (Instance.blocks ~n ~ell)
  in
  Engine.ingest_batch_quiet twin long;
  Engine.ingest_batch_quiet twin short;
  with_tempdir (fun dir ->
      with_server ~dir (fun router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"s" ~alg:"onl-dynamic" ~seed:4 ~n ~ell));
          let a1 = Net.request_quiet cl ~stream:1 long ~pos:0 ~len:4096 in
          let a2 = Net.request_quiet cl ~stream:1 short ~pos:0 ~len:10 in
          Alcotest.(check (list int)) "acks count each batch"
            [ 4096; 4096; 10; 4106 ]
            [ a1.Proto.count; a1.Proto.pos; a2.Proto.count; a2.Proto.pos ];
          (match Tenant.find router "s" with
          | Some tn -> (
              match Tenant.engine tn with
              | Some engine ->
                  Alcotest.(check string)
                    "checkpoint identical to the pipe twin's"
                    (Ckpt.to_string (Engine.checkpoint twin))
                    (Ckpt.to_string (Engine.checkpoint engine))
              | None -> Alcotest.fail "engine released early")
          | None -> Alcotest.fail "tenant missing");
          Net.close cl))

(* Heap words allocated by [k] warmed request_quiet round trips of
   [len] edges to a never-move tenant, both ends in this process.  Minor
   words come from [Gc.minor_words], which counts the current minor heap
   ([Gc.counters]' minor count moves only at a minor collection); words
   allocated straight into the major heap, blocks above 256 words such
   as a fresh edge array or payload copy, from [Gc.counters]. *)
let words_per_round_trip cl ~stream trace ~len ~k =
  for _ = 1 to 3 do
    ignore (Net.request_quiet cl ~stream trace ~pos:0 ~len)
  done;
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  for _ = 1 to k do
    ignore (Net.request_quiet cl ~stream trace ~pos:0 ~len)
  done;
  (words () -. w0) /. float_of_int k

(* The socket path's own work is proportional to the bytes and allocates
   nothing per edge: frames are encoded into the client's buffer and
   decoded from the server's window into the connection's edge array.
   What a warmed round trip allocates (select lists, the ack and its
   frame records) must not grow with the batch: 4096 edges may not cost
   more heap words than 256 do, give or take a few. *)
let test_socket_allocation_budget () =
  let n = 1024 and ell = 16 in
  let trace = gen_trace ~n ~steps:4096 ~seed:61 in
  with_tempdir (fun dir ->
      with_server ~dir (fun _router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"nm" ~alg:"never-move" ~seed:1 ~n ~ell));
          let per_trip len = words_per_round_trip cl ~stream:1 trace ~len ~k:100 in
          let small = per_trip 256 in
          let large = per_trip 4096 in
          if large > small +. 16. then
            Alcotest.failf
              "a round trip of 4096 edges allocates %.1f heap words, of 256 \
               edges %.1f: the socket path allocates per edge"
              large small;
          Net.close cl))

let test_config_mismatch_and_unknown_stream () =
  with_tempdir (fun dir ->
      with_server ~dir (fun _router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"x" ~alg:"onl-dynamic" ~seed:1 ~n:64 ~ell:4));
          (match
             Net.open_stream cl ~stream:2
               (open_cfg ~tenant:"x" ~alg:"onl-dynamic" ~seed:9 ~n:64 ~ell:4)
           with
          | _ -> Alcotest.fail "config mismatch not reported"
          | exception Net.Server_error (code, _) ->
              Alcotest.(check int) "config mismatch code"
                Proto.err_config_mismatch code);
          (match Net.request cl ~stream:9 [| 0 |] ~pos:0 ~len:1 with
          | _ -> Alcotest.fail "unknown stream not reported"
          | exception Net.Server_error (code, _) ->
              Alcotest.(check int) "unknown stream code"
                Proto.err_unknown_stream code);
          Net.close cl))

(* --- supervised kill mid-connection + reconnect-resume ----------------- *)

let test_kill_and_reconnect_resume () =
  let n = 128 and ell = 8 and steps = 700 in
  let trace = gen_trace ~n ~steps ~seed:31 in
  let ref_ds, _, ref_ckpt =
    reference_run ~alg:"onl-dynamic" ~seed:3 ~n ~ell trace
  in
  with_tempdir (fun dir ->
      with_server ~supervise:true ~checkpoint_every:64 ~dir
        (fun router server addr ->
          let cfg = open_cfg ~tenant:"k" ~alg:"onl-dynamic" ~seed:3 ~n ~ell in
          let cl = connect_pumped server addr in
          ignore (Net.open_stream cl ~stream:1 cfg);
          (* Overlay semantics: keep the latest decision seen per step. *)
          let seen = Hashtbl.create 1024 in
          let record ds =
            Array.iter
              (fun (d : Engine.decision) ->
                Hashtbl.replace seen d.Engine.step (decision_key d))
              ds
          in
          Fault.configure "crash@351";
          Fun.protect ~finally:Fault.disable (fun () ->
              let batches = batches_of trace ~batch:90 in
              let crashed = ref false in
              let rec send cl pos = function
                | [] -> cl
                | b :: rest -> (
                    match
                      Net.request cl ~stream:1 b ~pos:0 ~len:(Array.length b)
                    with
                    | ds ->
                        record ds;
                        send cl (pos + Array.length b) rest
                    | exception Net.Server_error (code, _)
                      when code = Proto.err_tenant_failed ->
                        crashed := true;
                        (* The connection survives a supervised kill:
                           re-open on the same wire and resume from the
                           checkpointed position. *)
                        let resume = Net.open_stream cl ~stream:1 cfg in
                        if resume > pos then
                          Alcotest.failf
                            "resume position %d is past the unsent suffix %d"
                            resume pos;
                        let tail =
                          Array.sub trace resume (Array.length trace - resume)
                        in
                        send cl resume (batches_of tail ~batch:90))
              in
              let cl = send cl 0 batches in
              Alcotest.(check bool) "the injected crash fired" true !crashed;
              Alcotest.(check bool) "tenant was killed and revived" true
                (match Tenant.find router "k" with
                | Some tn -> (
                    match Tenant.state tn with Tenant.Serving -> true | _ -> false)
                | None -> false);
              let overlay =
                List.init steps (fun i ->
                    match Hashtbl.find_opt seen i with
                    | Some key -> key
                    | None -> Printf.sprintf "missing step %d" i)
              in
              Alcotest.(check (list string))
                "overlaid decisions identical to the uninterrupted run"
                (List.map decision_key ref_ds)
                overlay;
              (match Tenant.find router "k" with
              | Some tn -> (
                  match Tenant.engine tn with
                  | Some engine ->
                      Alcotest.(check string)
                        "post-recovery checkpoint identical"
                        (Ckpt.to_string ref_ckpt)
                        (Ckpt.to_string (Engine.checkpoint engine))
                  | None -> Alcotest.fail "engine released early")
              | None -> Alcotest.fail "tenant missing");
              Net.close cl)))

(* --- schedule oracle: socket == pipe under random multi-tenant traffic --- *)

(* One in-process server (supervised, [hwm] 4096) serves 2-4 tenants on
   small instances through the pumped client.  A schedule interleaves
   decision and quiet batches of random length (0 included), forced
   checkpoints, close + re-open, and disconnect + reconnect; one
   [crash@k] kills whichever engine first serves request [k], and the
   client re-opens that stream and resumes from the [Opened] position.

   Two kinds of traffic reach parts of the framing layer that one
   synchronous call at a time does not:
   - one tenant takes a single decision batch whose reply is larger than
     what a Unix socket absorbs in one write, so the connection's output
     queue holds more than [hwm] when the next step starts and the
     throttle latch engages and releases;
   - a second connection pipelines bursts of request frames, often
     longer than the server's 4 KiB input window, written in pieces of
     chosen sizes with a server step after each, so the window holds
     complete frames followed by a torn one when the next piece arrives
     and must compact or grow; several replies share one read on the way
     back.

   A final drain sends every tenant's remaining requests, closes some
   streams explicitly and leaves the rest to the server's drain.

   The oracle, per tenant, against its isolated [Engine] run: every
   decision received (latency masked) equals the reference decision at
   its step, every ack and every closed payload carries the reference
   totals at its position, and the checkpoint file left after the drain
   is byte-identical to the reference checkpoint.  Torn checkpoint
   writes are test_crash's. *)

type sched_tenant = {
  st_alg : string;
  st_n : int;
  st_ell : int;
  st_seed : int;
  st_trace_seed : int;
  st_tail : int;  (** requests left over for the final drain *)
  st_close : bool;  (** closed by the client (else by the drain) *)
}

type sched_op =
  | Send of int * int * bool  (** tenant, batch length, quiet *)
  | Force_ckpt of int
  | Reopen of int  (** close_stream, then open_stream *)
  | Reconnect  (** drop the connection, dial, re-open every stream *)
  | Big of int  (** the one batch whose reply outgrows the socket *)
  | Burst of (int * int * bool) list * int list
      (** pipelined batches on the second connection, and the sizes of
          the pieces they are written in (cycled) *)

type schedule = {
  sc_tenants : sched_tenant array;
  sc_ops : sched_op list;
  sc_every : int;  (** the router's rolling checkpoint cadence *)
  sc_crash : int;
}

let print_schedule sc =
  let batch (i, len, q) =
    Printf.sprintf "%s t%d %d" (if q then "quiet" else "req") i len
  in
  let op = function
    | Send (i, len, q) -> batch (i, len, q)
    | Force_ckpt i -> Printf.sprintf "ckpt t%d" i
    | Reopen i -> Printf.sprintf "reopen t%d" i
    | Reconnect -> "reconnect"
    | Big i -> Printf.sprintf "big t%d" i
    | Burst (bs, pieces) ->
        Printf.sprintf "burst (%s) in pieces of %s"
          (String.concat ", " (List.map batch bs))
          (String.concat "," (List.map string_of_int pieces))
  in
  Printf.sprintf "every=%d crash@%d tenants=[%s] ops=[%s]" sc.sc_every
    sc.sc_crash
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun i t ->
               Printf.sprintf "t%d %s n=%d ell=%d seed=%d trace=%d tail=%d %s"
                 i t.st_alg t.st_n t.st_ell t.st_seed t.st_trace_seed
                 t.st_tail
                 (if t.st_close then "close" else "drain"))
             sc.sc_tenants)))
    (String.concat "; " (List.map op sc.sc_ops))

let gen_schedule =
  QCheck2.Gen.(
    let* k = int_range 2 4 in
    let tenant =
      let* st_alg = oneofl Rbgp_serve.Registry.names in
      let* st_n, st_ell = oneofl [ (16, 2); (16, 4); (24, 4); (32, 4) ] in
      let* st_seed = int_range 0 1000 in
      let* st_trace_seed = int_range 0 1_000_000 in
      let* st_tail = int_range 0 60 in
      let* st_close = bool in
      return { st_alg; st_n; st_ell; st_seed; st_trace_seed; st_tail; st_close }
    in
    let* sc_tenants = array_size (return k) tenant in
    let batch ~long =
      let* i = int_range 0 (k - 1) in
      let* len =
        frequency
          [ (1, return 0); (5, int_range 1 120); (2, int_range 400 long) ]
      in
      let* quiet = bool in
      return (i, len, quiet)
    in
    let op =
      let* i = int_range 0 (k - 1) in
      frequency
        [
          (8, map (fun (i, len, q) -> Send (i, len, q)) (batch ~long:900));
          ( 2,
            map2
              (fun bs pieces -> Burst (bs, pieces))
              (list_size (int_range 2 8) (batch ~long:1500))
              (list_size (int_range 1 4) (int_range 1 1500)) );
          (1, return (Force_ckpt i));
          (1, return (Reopen i));
          (1, return Reconnect);
        ]
    in
    let* ops = list_size (int_range 4 24) op in
    let* big = int_range 0 (k - 1) in
    let* big_at = int_range 0 (List.length ops) in
    let sc_ops =
      List.filteri (fun j _ -> j < big_at) ops
      @ (Big big :: List.filteri (fun j _ -> j >= big_at) ops)
    in
    let* sc_every = oneofl [ 0; 64; 250 ] in
    let* sc_crash = int_range 1 400 in
    return { sc_tenants; sc_ops; sc_every; sc_crash })

(* Bytes a fresh Unix stream socket accepts before a non-blocking write
   would block: a reply longer than this plus [hwm] leaves more than
   [hwm] queued after the server's first flush. *)
let socket_capacity =
  lazy
    (let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.set_nonblock a;
     let chunk = Bytes.create 65536 and total = ref 0 and full = ref false in
     while not !full do
       match Unix.write a chunk 0 (Bytes.length chunk) with
       | n -> total := !total + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           full := true
     done;
     Unix.close a;
     Unix.close b;
     !total)

let sched_hwm = 4096

(* A decision takes at least 7 bytes on the wire (seven varints). *)
let big_batch () = ((Lazy.force socket_capacity + (2 * sched_hwm)) / 7) + 1

let run_schedule sc =
  let k = Array.length sc.sc_tenants in
  let big = big_batch () in
  let traces =
    Array.mapi
      (fun i t ->
        let sent =
          List.fold_left
            (fun acc op ->
              match op with
              | Send (j, len, _) when j = i -> acc + len
              | Big j when j = i -> acc + big
              | Burst (bs, _) ->
                  List.fold_left
                    (fun acc (j, len, _) -> if j = i then acc + len else acc)
                    acc bs
              | _ -> acc)
            0 sc.sc_ops
        in
        gen_trace ~n:t.st_n ~steps:(sent + t.st_tail) ~seed:t.st_trace_seed)
      sc.sc_tenants
  in
  let refs =
    Array.mapi
      (fun i t ->
        let ds, result, ckpt =
          reference_run ~alg:t.st_alg ~seed:t.st_seed ~n:t.st_n ~ell:t.st_ell
            traces.(i)
        in
        (Array.of_list ds, result, ckpt))
      sc.sc_tenants
  in
  let fail fmt = Printf.ksprintf failwith fmt in
  (* the reference totals after [pos] requests; before the first, the
     initial assignment's load *)
  let totals_at i pos =
    let ds, _, _ = refs.(i) in
    if pos = 0 then begin
      let t = sc.sc_tenants.(i) in
      let fresh =
        Engine.create ~epsilon:0.5 ~alg:t.st_alg ~seed:t.st_seed
          (Instance.blocks ~n:t.st_n ~ell:t.st_ell)
      in
      (0, 0, (Engine.result fresh).Rbgp_ring.Simulator.max_load)
    end
    else
      let d = ds.(pos - 1) in
      (d.Engine.cum_comm, d.Engine.cum_mig, d.Engine.max_load)
  in
  let id i = Printf.sprintf "t%d" i in
  let cfg i =
    let t = sc.sc_tenants.(i) in
    open_cfg ~tenant:(id i) ~alg:t.st_alg ~seed:t.st_seed ~n:t.st_n
      ~ell:t.st_ell
  in
  with_tempdir (fun dir ->
      let router =
        Tenant.create ~checkpoint_dir:dir ~checkpoint_every:sc.sc_every
          ~checkpoint_keep:2 ()
      in
      let path = next_sock dir in
      let addr = Net.Unix_sock path in
      let server = Net.server ~supervise:true ~hwm:sched_hwm ~router addr in
      Fun.protect ~finally:(fun () -> Net.shutdown server) @@ fun () ->
      let pumps = ref 0 in
      let pump () =
        incr pumps;
        if !pumps > 1_000_000 then fail "the server stopped making progress";
        ignore (Net.step server)
      in
      let pos = Array.make k 0 in
      let seen = Array.init k (fun _ -> Hashtbl.create 256) in
      let crashed = ref false in
      let note_crash i =
        if !crashed then fail "%s failed after the one crash" (id i);
        crashed := true
      in
      let check_totals what i ~at (comm, mig, max_load) =
        if (comm, mig, max_load) <> totals_at i at then
          fail "%s: %s totals at %d differ from the isolated run" (id i) what at
      in
      let take_ack i ~at ~len (a : Proto.ack_payload) =
        if a.Proto.count <> len || a.Proto.pos <> at + len then
          fail "%s: ack for %d at %d reads %d at %d" (id i) len at a.Proto.count
            a.Proto.pos;
        check_totals "ack" i ~at:(at + len)
          (a.Proto.cum_comm, a.Proto.cum_mig, a.Proto.ack_max_load);
        pos.(i) <- at + len
      in
      let take_decisions i ~at ~len ds =
        if Array.length ds <> len then
          fail "%s: %d decisions for %d requests" (id i) (Array.length ds) len;
        Array.iteri
          (fun j (d : Engine.decision) ->
            if d.Engine.step <> at + j then
              fail "%s: decision %d carries step %d" (id i) (at + j)
                d.Engine.step;
            Hashtbl.replace seen.(i) d.Engine.step (decision_key d))
          ds;
        pos.(i) <- at + len
      in
      let open_at cl i ~expect =
        let resume = Net.open_stream cl ~stream:(i + 1) (cfg i) in
        (match expect with
        | Some p when resume <> p ->
            fail "%s re-opened at %d, expected %d" (id i) resume p
        | _ ->
            if resume > pos.(i) then fail "%s resumes past its sends" (id i));
        pos.(i) <- resume
      in
      let clip i len = Stdlib.min len (Array.length traces.(i) - pos.(i)) in
      let send cl i len quiet =
        let at = pos.(i) and len = clip i len in
        match
          if quiet then
            take_ack i ~at ~len
              (Net.request_quiet cl ~stream:(i + 1) traces.(i) ~pos:at ~len)
          else
            take_decisions i ~at ~len
              (Net.request cl ~stream:(i + 1) traces.(i) ~pos:at ~len)
        with
        | () -> ()
        | exception Net.Server_error (code, _)
          when code = Proto.err_tenant_failed ->
            note_crash i;
            open_at cl i ~expect:None
      in
      let cl = ref (Net.connect ~pump addr) in
      for i = 0 to k - 1 do
        open_at !cl i ~expect:(Some 0)
      done;
      (* the pipelining connection binds tenant i to stream 101 + i *)
      let raw = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close raw) @@ fun () ->
      Unix.connect raw (Unix.ADDR_UNIX path);
      Unix.set_nonblock raw;
      let raw_in = Proto.queue () and rdbuf = Bytes.create 65536 in
      let raw_write s =
        let off = ref 0 in
        while !off < String.length s do
          match Unix.write_substring raw s !off (String.length s - !off) with
          | n -> off := !off + n
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              pump ()
        done
      in
      let rec raw_replies acc count =
        if count = 0 then List.rev acc
        else
          match Proto.next raw_in with
          | Some f -> raw_replies (f :: acc) (count - 1)
          | None ->
              (match Unix.read raw rdbuf 0 (Bytes.length rdbuf) with
              | 0 -> fail "the server closed the pipelining connection"
              | n -> Proto.feed raw_in rdbuf 0 n
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  pump ());
              raw_replies acc count
      in
      let burst frames pieces =
        let wire = String.concat "" frames and sizes = Array.of_list pieces in
        let rec write at j =
          if at < String.length wire then begin
            let len =
              Stdlib.min
                sizes.(j mod Array.length sizes)
                (String.length wire - at)
            in
            raw_write (String.sub wire at len);
            pump ();
            write (at + len) (j + 1)
          end
        in
        write 0 0;
        raw_replies [] (List.length frames)
      in
      let payload add =
        let b = Buffer.create 64 in
        add b;
        Buffer.contents b
      in
      (match
         burst
           (reference_frame ~stream:0 Proto.Hello (payload Proto.add_hello)
           :: List.init k (fun i ->
                  reference_frame ~stream:(101 + i) Proto.Open_stream
                    (payload (fun b -> Proto.add_open b (cfg i)))))
           [ 5 ]
       with
      | hello :: opened ->
          ignore (Proto.read_hello hello.Proto.payload);
          List.iteri
            (fun i (f : Proto.frame) ->
              if Proto.read_opened f.Proto.payload <> pos.(i) then
                fail "%s opened on the second connection elsewhere" (id i))
            opened
      | [] -> fail "no hello on the second connection");
      let pipeline batches pieces =
        let planned = Array.copy pos in
        let batches =
          List.map
            (fun (i, len, quiet) ->
              let at = planned.(i) in
              let len = Stdlib.min len (Array.length traces.(i) - at) in
              planned.(i) <- at + len;
              (i, at, len, quiet))
            batches
        in
        let replies =
          burst
            (List.map
               (fun (i, at, len, quiet) ->
                 reference_frame ~stream:(101 + i)
                   (if quiet then Proto.Req_quiet else Proto.Req)
                   (reference_req_payload traces.(i) ~pos:at ~len))
               batches)
            pieces
        in
        (* after a tenant fails, its later batches in the burst fail too *)
        let failed = Array.make k false in
        List.iter2
          (fun (i, at, len, quiet) (f : Proto.frame) ->
            if f.Proto.stream <> 101 + i then
              fail "%s: a reply on stream %d" (id i) f.Proto.stream;
            match f.Proto.op with
            | Proto.Error_frame ->
                let code, msg = Proto.read_error f.Proto.payload in
                if code <> Proto.err_tenant_failed then
                  fail "%s: error %d (%s)" (id i) code msg;
                if not failed.(i) then note_crash i;
                failed.(i) <- true
            | _ when failed.(i) -> fail "%s served after it failed" (id i)
            | Proto.Ack when quiet ->
                take_ack i ~at ~len (Proto.read_ack f.Proto.payload)
            | Proto.Decisions when not quiet ->
                take_decisions i ~at ~len
                  (snd (Proto.read_decisions f.Proto.payload))
            | op -> fail "%s: a %s reply" (id i) (Proto.op_name op))
          batches replies;
        Array.iteri (fun i f -> if f then open_at !cl i ~expect:None) failed
      in
      Fault.configure (Printf.sprintf "crash@%d" sc.sc_crash);
      Fun.protect ~finally:Fault.disable (fun () ->
          List.iter
            (function
              | Send (i, len, quiet) -> send !cl i len quiet
              | Big i -> send !cl i big false
              | Burst (batches, pieces) -> pipeline batches pieces
              | Force_ckpt i ->
                  let at = Net.checkpoint !cl ~stream:(i + 1) in
                  if at <> pos.(i) then
                    fail "%s checkpointed at %d, sent %d" (id i) at pos.(i)
              | Reopen i ->
                  let c = Net.close_stream !cl ~stream:(i + 1) in
                  if c.Proto.closed_pos <> pos.(i) then
                    fail "%s closed at %d, sent %d" (id i) c.Proto.closed_pos
                      pos.(i);
                  check_totals "closed" i ~at:pos.(i)
                    ( c.Proto.closed_comm,
                      c.Proto.closed_mig,
                      c.Proto.closed_max_load );
                  open_at !cl i ~expect:(Some pos.(i))
              | Reconnect ->
                  Net.close !cl;
                  cl := Net.connect ~pump addr;
                  for i = 0 to k - 1 do
                    open_at !cl i ~expect:(Some pos.(i))
                  done)
            sc.sc_ops;
          (* the final drain: every tenant's remaining requests *)
          Array.iteri
            (fun i trace ->
              let turn = ref 0 in
              while pos.(i) < Array.length trace do
                incr turn;
                send !cl i 97 (!turn land 1 = 0)
              done)
            traces);
      if not !crashed then fail "crash@%d never fired" sc.sc_crash;
      Array.iteri
        (fun i t ->
          if t.st_close then begin
            let c = Net.close_stream !cl ~stream:(i + 1) in
            let _, result, _ = refs.(i) in
            let cost = result.Rbgp_ring.Simulator.cost in
            if
              [
                c.Proto.closed_pos;
                c.Proto.closed_comm;
                c.Proto.closed_mig;
                c.Proto.closed_max_load;
                c.Proto.closed_violations;
              ]
              <> [
                   result.Rbgp_ring.Simulator.steps;
                   cost.Rbgp_ring.Cost.comm;
                   cost.Rbgp_ring.Cost.mig;
                   result.Rbgp_ring.Simulator.max_load;
                   result.Rbgp_ring.Simulator.capacity_violations;
                 ]
            then fail "%s: closed totals differ from the isolated result" (id i)
          end)
        sc.sc_tenants;
      Net.shutdown_server !cl;
      let rounds = ref 0 in
      while Net.step server do
        incr rounds;
        if !rounds > 1000 then fail "the drain never completed"
      done;
      Array.iteri
        (fun i (ds, _, ckpt) ->
          Hashtbl.iter
            (fun step key ->
              if not (String.equal key (decision_key ds.(step))) then
                fail "%s: decision %d differs from the isolated run" (id i)
                  step)
            seen.(i);
          (match Tenant.find router (id i) with
          | Some tn -> (
              match Tenant.state tn with
              | Tenant.Closed -> ()
              | Tenant.Serving | Tenant.Dead _ ->
                  fail "%s is not closed after the drain" (id i))
          | None -> fail "%s is missing" (id i));
          let file = Filename.concat dir (id i ^ ".ckpt") in
          let bytes = In_channel.with_open_bin file In_channel.input_all in
          if not (String.equal bytes (Ckpt.to_string ckpt)) then
            fail "%s: final checkpoint differs from the isolated run's" (id i))
        refs;
      true)

let qcheck_schedule_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~print:print_schedule
       ~name:"qcheck: multi-tenant schedules == isolated engine runs"
       gen_schedule run_schedule)

(* --- drain semantics ---------------------------------------------------- *)

let test_drain_rejects_new_opens () =
  with_tempdir (fun dir ->
      with_server ~dir (fun _router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"d" ~alg:"onl-dynamic" ~seed:1 ~n:64 ~ell:4));
          Net.begin_drain server;
          (match
             Net.open_stream cl ~stream:2
               (open_cfg ~tenant:"e" ~alg:"onl-dynamic" ~seed:1 ~n:64 ~ell:4)
           with
          | _ -> Alcotest.fail "open during drain not rejected"
          | exception Net.Server_error (code, _) ->
              Alcotest.(check int) "draining code" Proto.err_draining code
          | exception Net.Disconnected _ -> ());
          Alcotest.(check bool) "drain closed the serving tenant" true
            (match Tenant.find _router "d" with
            | Some tn -> (
                match Tenant.state tn with Tenant.Closed -> true | _ -> false)
            | None -> false)))

(* --- HTTP observability ------------------------------------------------- *)

(* Pull "metric{...tenant="id"...} value" out of an exposition body. *)
let prom_value body metric tenant =
  let needle = Printf.sprintf "%s{tenant=\"%s\"" metric tenant in
  let lines = String.split_on_char '\n' body in
  let rec find = function
    | [] -> None
    | line :: rest ->
        if
          String.length line > String.length needle
          && String.equal (String.sub line 0 (String.length needle)) needle
        then
          match String.rindex_opt line ' ' with
          | Some i ->
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        else find rest
  in
  find lines

let json_int body key =
  (* first occurrence of "key":<int> — enough for a single-tenant body *)
  let needle = Printf.sprintf "\"%s\":" key in
  let rec search from =
    match String.index_from_opt body from needle.[0] with
    | None -> None
    | Some i ->
        if
          i + String.length needle <= String.length body
          && String.equal (String.sub body i (String.length needle)) needle
        then
          let j = ref (i + String.length needle) in
          let start = !j in
          while
            !j < String.length body
            && (match body.[!j] with '0' .. '9' | '-' -> true | _ -> false)
          do
            incr j
          done;
          int_of_string_opt (String.sub body start (!j - start))
        else search (i + 1)
  in
  search 0

let body_of response =
  match Astring.String.cut ~sep:"\r\n\r\n" response with
  | Some (_, body) -> body
  | None -> Alcotest.fail "malformed HTTP response"

let test_http_observability () =
  let n = 128 and ell = 8 in
  let trace = gen_trace ~n ~steps:400 ~seed:41 in
  with_tempdir (fun dir ->
      with_server ~dir (fun router server addr ->
          let cl = connect_pumped server addr in
          ignore
            (Net.open_stream cl ~stream:1
               (open_cfg ~tenant:"m" ~alg:"onl-dynamic" ~seed:7 ~n ~ell));
          let ds = Net.request cl ~stream:1 trace ~pos:0 ~len:(Array.length trace) in
          let last = ds.(Array.length ds - 1) in
          let metrics =
            body_of (Http.handle ~router ~draining:false "GET /metrics HTTP/1.0\r\n\r\n")
          and tenants =
            body_of (Http.handle ~router ~draining:false "GET /tenants HTTP/1.0\r\n\r\n")
          in
          let check_prom name metric want =
            match prom_value metrics metric "m" with
            | Some v -> Alcotest.(check int) name want (int_of_float v)
            | None -> Alcotest.failf "%s: %s missing from /metrics" name metric
          in
          check_prom "/metrics requests" "rbgp_requests_total" 400;
          check_prom "/metrics comm" "rbgp_comm_cost_total" last.Engine.cum_comm;
          check_prom "/metrics mig" "rbgp_migration_cost_total"
            last.Engine.cum_mig;
          check_prom "/metrics max load" "rbgp_max_load" last.Engine.max_load;
          check_prom "/metrics position" "rbgp_tenant_position" 400;
          check_prom "/metrics up" "rbgp_tenant_up" 1;
          let check_json name key want =
            match json_int tenants key with
            | Some v -> Alcotest.(check int) name want v
            | None -> Alcotest.failf "%s: %s missing from /tenants" name key
          in
          check_json "/tenants requests agree" "requests" 400;
          check_json "/tenants comm agrees" "comm" last.Engine.cum_comm;
          check_json "/tenants mig agrees" "mig" last.Engine.cum_mig;
          check_json "/tenants position agrees" "pos" 400;
          (match Tenant.find router "m" with
          | Some tn -> (
              match Tenant.metrics_snapshot tn with
              | Some s ->
                  Alcotest.(check int) "snapshot agrees with both surfaces" 400
                    (Metrics.snapshot_requests s)
              | None -> Alcotest.fail "no metrics snapshot")
          | None -> Alcotest.fail "tenant missing");
          Alcotest.(check bool) "healthz serving" true
            (Astring.String.is_infix ~affix:"200 OK"
               (Http.handle ~router ~draining:false "GET /healthz HTTP/1.0\r\n\r\n"));
          Alcotest.(check bool) "healthz draining" true
            (Astring.String.is_infix ~affix:"503"
               (Http.handle ~router ~draining:true "GET /healthz HTTP/1.0\r\n\r\n"));
          Alcotest.(check bool) "unknown path 404" true
            (Astring.String.is_infix ~affix:"404"
               (Http.handle ~router ~draining:false "GET /nope HTTP/1.0\r\n\r\n"));
          Alcotest.(check bool) "non-GET 405" true
            (Astring.String.is_infix ~affix:"405"
               (Http.handle ~router ~draining:false
                  "POST /metrics HTTP/1.0\r\n\r\n"));
          Net.close cl))

(* The whole /metrics body against its Printf formats: the tenant gauges
   as [%s] and [%d] lines after the exposition of every tenant's series,
   uptime and checkpoint age masked.  Of three tenants one is closed
   (up 0, its last series kept) and one never checkpointed (no age
   line). *)
let exposition series =
  let buf = Buffer.create 4096 in
  Metrics.prometheus_exposition buf series;
  Buffer.contents buf

let mask_sample prefix body =
  String.split_on_char '\n' body
  |> List.map (fun line ->
         if Astring.String.is_prefix ~affix:prefix line then
           match String.rindex_opt line ' ' with
           | Some i -> String.sub line 0 (i + 1) ^ "_"
           | None -> line
         else line)
  |> String.concat "\n"

let test_metrics_body_bytes () =
  let n = 64 and ell = 4 in
  let trace = gen_trace ~n ~steps:300 ~seed:71 in
  with_tempdir (fun dir ->
      with_server ~dir (fun router server addr ->
          let cl = connect_pumped server addr in
          List.iteri
            (fun i (tenant, alg) ->
              ignore
                (Net.open_stream cl ~stream:(i + 1)
                   (open_cfg ~tenant ~alg ~seed:i ~n ~ell));
              ignore
                (Net.request cl ~stream:(i + 1) trace ~pos:0
                   ~len:(100 * (i + 1))))
            [ ("a", "onl-dynamic"); ("b", "never-move"); ("c", "greedy-colocate") ];
          ignore (Net.checkpoint cl ~stream:1);
          ignore (Net.close_stream cl ~stream:2);
          let body =
            body_of
              (Http.handle ~router ~draining:false "GET /metrics HTTP/1.0\r\n\r\n")
          in
          let tns = Tenant.tenants router in
          let want =
            exposition
              (List.filter_map
                 (fun tn ->
                   Option.map
                     (fun s ->
                       ( [ ("tenant", Tenant.id tn);
                           ("alg", (Tenant.config tn).Proto.alg) ],
                         s ))
                     (Tenant.metrics_snapshot tn))
                 tns)
            ^ "# HELP rbgp_tenant_up Tenant state: 1 serving, 0 closed or dead.\n\
               # TYPE rbgp_tenant_up gauge\n"
            ^ String.concat ""
                (List.map
                   (fun tn ->
                     Printf.sprintf "rbgp_tenant_up{tenant=\"%s\"} %d\n"
                       (Tenant.id tn)
                       (match Tenant.state tn with Tenant.Serving -> 1 | _ -> 0))
                   tns)
            ^ "# HELP rbgp_tenant_position Requests served (including those \
               before a resumed checkpoint).\n\
               # TYPE rbgp_tenant_position gauge\n"
            ^ String.concat ""
                (List.map
                   (fun tn ->
                     Printf.sprintf "rbgp_tenant_position{tenant=\"%s\"} %d\n"
                       (Tenant.id tn) (Tenant.pos tn))
                   tns)
            ^ "# HELP rbgp_checkpoint_age_seconds Seconds since the tenant's \
               last durable checkpoint.\n\
               # TYPE rbgp_checkpoint_age_seconds gauge\n"
            ^ String.concat ""
                (List.filter_map
                   (fun tn ->
                     Option.map
                       (fun age ->
                         Printf.sprintf
                           "rbgp_checkpoint_age_seconds{tenant=\"%s\"} %.3f\n"
                           (Tenant.id tn) age)
                       (Tenant.ckpt_age_s tn))
                   tns)
          in
          let mask b =
            mask_sample "rbgp_checkpoint_age_seconds{"
              (mask_sample "rbgp_uptime_seconds{" b)
          in
          Alcotest.(check string) "/metrics body == its Printf formats"
            (mask want) (mask body);
          Alcotest.(check bool) "a closed and a never-checkpointed tenant" true
            (Astring.String.is_infix ~affix:"rbgp_tenant_up{tenant=\"b\"} 0" body
            && not
                 (Astring.String.is_infix
                    ~affix:"rbgp_checkpoint_age_seconds{tenant=\"c\"}" body));
          Net.close cl))

(* The HTTP listener over a real socket: a request head that arrives in
   two reads accumulates in the connection's input queue and is answered
   once, byte for byte as [Http.handle] answers it, and a head over the
   limit is answered 431; the server closes the connection after each
   response. *)
let test_http_over_socket () =
  with_tempdir (fun dir ->
      let router = Tenant.create ~checkpoint_dir:dir () in
      let http = next_sock dir in
      let server =
        Net.server ~http:(Net.Unix_sock http) ~router
          (Net.Unix_sock (next_sock dir))
      in
      Fun.protect ~finally:(fun () -> Net.shutdown server) @@ fun () ->
      let scrape pieces =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        Unix.connect fd (Unix.ADDR_UNIX http);
        List.iter
          (fun piece ->
            ignore (Unix.write_substring fd piece 0 (String.length piece));
            ignore (Net.step server);
            ignore (Net.step server))
          pieces;
        Unix.set_nonblock fd;
        let got = Buffer.create 256 and chunk = Bytes.create 4096 in
        let rec read rounds =
          if rounds > 1000 then Alcotest.fail "the server never closed";
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Buffer.contents got
          | n ->
              Buffer.add_subbytes got chunk 0 n;
              read rounds
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ignore (Net.step server);
              read (rounds + 1)
        in
        read 0
      in
      let head = "GET /healthz HTTP/1.0\r\n\r\n" in
      Alcotest.(check string) "a head in two reads, answered once"
        (Http.handle ~router ~draining:false head)
        (scrape
           [ String.sub head 0 12; String.sub head 12 (String.length head - 12) ]);
      Alcotest.(check string) "a head over the limit is answered 431"
        (Http.response ~status:431 ~content_type:"text/plain" "too large\n")
        (scrape [ String.make (Http.max_request_bytes + 1) 'x' ]))

let test_prometheus_escaping () =
  let m = Metrics.create () in
  let body =
    exposition [ ([ ("tenant", "a\\b\"c\nd") ], Metrics.snapshot m) ]
  in
  Alcotest.(check bool) "label value escaped" true
    (Astring.String.is_infix ~affix:{|tenant="a\\b\"c\nd"|} body)

let () =
  Alcotest.run "net"
    [
      ( "dechunker",
        [
          Alcotest.test_case "split at every byte boundary" `Quick
            test_dechunker_every_boundary;
          Alcotest.test_case "byte-at-a-time feed" `Quick
            test_dechunker_byte_at_a_time;
          qcheck_dechunker_random_splits;
          qcheck_put_frame;
          Alcotest.test_case "put_frame refuses oversized payloads" `Quick
            test_put_frame_limits;
          Alcotest.test_case "unrepairable input raises" `Quick
            test_dechunker_rejects_garbage;
          qcheck_req_codec;
          qcheck_req_codec_reused;
          Alcotest.test_case "large batches do not pin their buffers" `Quick
            test_req_buffers_retention;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "two tenants over one socket == isolated runs"
            `Quick test_two_tenants_isolated;
          Alcotest.test_case "quiet path reaches the same state" `Quick
            test_quiet_path_identity;
          Alcotest.test_case "a short batch after a long one bills only itself"
            `Quick test_short_batch_after_long;
          Alcotest.test_case "socket round trip allocation flat in batch size"
            `Quick test_socket_allocation_budget;
          Alcotest.test_case "config mismatch and unknown stream errors"
            `Quick test_config_mismatch_and_unknown_stream;
          Alcotest.test_case "a failed listen names the address" `Quick
            test_listen_error_names_address;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "supervised kill + reconnect-resume bit-exact"
            `Quick test_kill_and_reconnect_resume;
          Alcotest.test_case "drain closes tenants and rejects opens" `Quick
            test_drain_rejects_new_opens;
        ] );
      ("schedule", [ qcheck_schedule_oracle ]);
      ( "http",
        [
          Alcotest.test_case "/metrics, /tenants and snapshots agree" `Quick
            test_http_observability;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_escaping;
          Alcotest.test_case "/metrics body bytes == Printf formats" `Quick
            test_metrics_body_bytes;
          Alcotest.test_case "a scrape over the socket, head in two reads"
            `Quick test_http_over_socket;
        ] );
    ]
