(* tenants-socket: one in-process client drives the socket server over a
   Unix socket, calling Net.step from the client's pump, for four tenants
   at n=1024, ell=16 — two onl-dynamic (they resume by replaying the
   stored prefix), one counter-threshold and one never-move (they restore
   an explicit snapshot).

   Each round sends one request_quiet batch per tenant and takes a
   GET /metrics scrape through Http.handle.  Every tenant is
   force-checkpointed at a fixed request cadence.  Midway every tenant is
   closed and re-opened (the resume), then served to the end and closed.
   Each pass gets a fresh router, server and checkpoint directory.

   The call whose latency is recorded is a round's request_quiet RPCs
   together: half of all RPCs go to onl-dynamic tenants and half to the
   cheap ones, so the median RPC sits in the gap between the two and
   flips from run to run. *)

open Common
module Net = Rbgp_serve.Net
module Proto = Rbgp_serve.Proto
module Tenant = Rbgp_serve.Tenant
module Engine = Rbgp_serve.Engine
module Metrics = Rbgp_serve.Metrics
module Checkpoint = Rbgp_serve.Checkpoint
module Http = Rbgp_serve.Http
module Pool = Rbgp_util.Pool

let n = 1024
let ell = 16

let tenants =
  [| ("t0", "onl-dynamic"); ("t1", "onl-dynamic"); ("t2", "counter-threshold");
     ("t3", "never-move") |]

let k = Array.length tenants

type setup = {
  traces : int array array;
  steps : int;  (** requests per tenant *)
  batch : int;
  ckpt_every : int;
}

let payload ctx i =
  let tenant, alg = tenants.(i) in
  { Proto.tenant; alg; n; ell; epsilon = 0.5; seed = ctx.seed + i }

type live = {
  router : Tenant.t;
  server : Net.server;
  client : Net.client;
  dir : string;
  pumps : int ref;  (** Net.step calls made from the client's pump *)
  step_layer : Span.layer ref;  (** the layer the pump's server steps count to *)
}

let start ctx tag =
  let dir = fresh_dir ctx ("ckpt-" ^ tag) in
  let addr = Net.Unix_sock (Filename.concat ctx.work (tag ^ ".sock")) in
  let router = Tenant.create ~checkpoint_dir:dir () in
  let server = Net.server ~router addr in
  let pumps = ref 0 and step_layer = ref Span.Step in
  let pump () =
    incr pumps;
    Span.enter !step_layer;
    ignore (Net.step server);
    Span.leave ()
  in
  let client = Net.connect ~pump addr in
  for i = 0 to k - 1 do
    let p = Net.open_stream client ~stream:(i + 1) (payload ctx i) in
    Res.check ctx.res "fresh tenant opens at position 0" (p = 0)
  done;
  { router; server; client; dir; pumps; step_layer }

let stop live =
  Net.close live.client;
  Net.shutdown live.server

let setup ctx ~steps ~batch ~ckpt_every () =
  let rng = Rng.create ctx.seed in
  let traces = Array.init k (fun _ -> rotating ~n ~steps (Rng.split rng)) in
  stop (start ctx "setup");
  { traces; steps; batch; ckpt_every }

(* One client call under span [client]; the server steps it pumps count
   to [server]. *)
let call live ~client ~server f =
  live.step_layer := server;
  Span.enter client;
  let r = f () in
  Span.leave ();
  live.step_layer := Span.Step;
  r

let ckpt_path live i = Filename.concat live.dir (fst tenants.(i) ^ ".ckpt")

(* The tenant engine's busy time so far, from its own public metrics. *)
let busy_ns live i =
  match Tenant.find live.router (fst tenants.(i)) with
  | None -> 0
  | Some tn -> (
      match Tenant.engine tn with
      | None -> 0
      | Some e ->
          let m = Engine.metrics e in
          int_of_float (Metrics.mean_latency_ns m *. float_of_int (Metrics.requests m)))

type pass_stats = {
  mutable rpc_ns : int;
  mutable rpc_busy_ns : int;
  mutable rpcs : int;
  mutable rpc_pumps : int;
  mutable pool_calls : int;
  mutable pool_parallel : int;
  mutable ckpt_ms : float list;
  mutable scrape_us : float list;
  mutable read_ms : float;
  mutable replayed : int;
  mutable resume_ms : float;
  mutable mid_pos : int array;
  mutable mid_bytes : string array;
  mutable final_bytes : string array;
}

let scrape_request = "GET /metrics HTTP/1.0\r\n\r\n"

let pass ctx s calls tag =
  let live = start ctx tag in
  let st =
    { rpc_ns = 0; rpc_busy_ns = 0; rpcs = 0; rpc_pumps = 0; pool_calls = 0;
      pool_parallel = 0; ckpt_ms = []; scrape_us = []; read_ms = 0.;
      replayed = 0; resume_ms = 0.; mid_pos = [||]; mid_bytes = [||];
      final_bytes = [||] }
  in
  let res = ctx.res in
  let pos = Array.make k 0 in
  (* bench-side probes (oracle file reads, Checkpoint.read_latest timing)
     run inside the pass but are taken out of its wall time *)
  let probe_ns = ref 0 in
  let probe f =
    let t = Clock.now_ns () in
    Span.enter Span.Probe;
    let r = f () in
    Span.leave ();
    probe_ns := !probe_ns + (Clock.now_ns () - t);
    r
  in
  let resume () =
    for i = 0 to k - 1 do
      ignore
        (call live ~client:Span.Close ~server:Span.Close (fun () ->
             Net.close_stream live.client ~stream:(i + 1)))
    done;
    st.mid_pos <- Array.copy pos;
    st.mid_bytes <- probe (fun () -> Array.init k (fun i -> read_file (ckpt_path live i)));
    probe (fun () ->
        for i = 0 to k - 1 do
          let t = Clock.now_ns () in
          let r = Checkpoint.read_latest ~path:(ckpt_path live i) () in
          st.read_ms <- st.read_ms +. (float_of_int (Clock.now_ns () - t) *. 1e-6);
          if r.Checkpoint.ckpt.Checkpoint.alg_state = None then
            st.replayed <- st.replayed + r.Checkpoint.ckpt.Checkpoint.pos
        done);
    let t = Clock.now_ns () in
    for i = 0 to k - 1 do
      let p =
        call live ~client:Span.Open ~server:Span.Open (fun () ->
            Net.open_stream live.client ~stream:(i + 1) (payload ctx i))
      in
      Res.check res "re-opened tenant resumes where it was closed" (p = pos.(i))
    done;
    st.resume_ms <- float_of_int (Clock.now_ns () - t) *. 1e-6
  in
  let t0 = Clock.now_ns () in
  let resumed = ref false in
  while Array.exists (fun p -> p < s.steps) pos do
    let round_ns = ref 0 in
    for i = 0 to k - 1 do
      if pos.(i) < s.steps then begin
        let len = min s.batch (s.steps - pos.(i)) in
        let busy0 = busy_ns live i and pumps0 = !(live.pumps) in
        incr Span.request;
        let c0 = Clock.now_ns () in
        Span.enter Span.Rpc;
        let ack =
          Net.request_quiet live.client ~stream:(i + 1) s.traces.(i) ~pos:pos.(i) ~len
        in
        Span.leave ();
        let dt = Clock.now_ns () - c0 in
        round_ns := !round_ns + dt;
        let busy = busy_ns live i - busy0 in
        Span.transfer ~from:Span.Step ~into:Span.Engine_busy busy;
        st.rpc_ns <- st.rpc_ns + dt;
        st.rpc_busy_ns <- st.rpc_busy_ns + busy;
        st.rpcs <- st.rpcs + 1;
        st.rpc_pumps <- st.rpc_pumps + (!(live.pumps) - pumps0);
        if String.equal (snd tenants.(i)) "onl-dynamic" then begin
          st.pool_calls <- st.pool_calls + 1;
          if Pool.last_map_parallel () then st.pool_parallel <- st.pool_parallel + 1
        end;
        let before = pos.(i) in
        pos.(i) <- before + len;
        Res.attempt res;
        if ack.Proto.pos <> pos.(i) then Res.fail res "ack position";
        if (pos.(i) / s.ckpt_every) > (before / s.ckpt_every) then begin
          let c = Clock.now_ns () in
          let p =
            call live ~client:Span.Ckpt ~server:Span.Ckpt (fun () ->
                Net.checkpoint live.client ~stream:(i + 1))
          in
          st.ckpt_ms <- (float_of_int (Clock.now_ns () - c) *. 1e-6) :: st.ckpt_ms;
          Res.attempt res;
          if p <> pos.(i) then Res.fail res "checkpoint position"
        end
      end
    done;
    Hist.record calls !round_ns;
    let c = Clock.now_ns () in
    Span.enter Span.Http;
    let reply = Http.handle ~router:live.router ~draining:false scrape_request in
    Span.leave ();
    st.scrape_us <- (float_of_int (Clock.now_ns () - c) *. 1e-3) :: st.scrape_us;
    Res.attempt res;
    if not (String.starts_with ~prefix:"HTTP/1.0 200" reply) then Res.fail res "metrics scrape";
    if (not !resumed) && Array.for_all (fun p -> p >= s.steps / 2) pos then begin
      resumed := true;
      resume ()
    end
  done;
  (* the final close writes each tenant's last checkpoint *)
  for i = 0 to k - 1 do
    let closed =
      call live ~client:Span.Ckpt ~server:Span.Ckpt (fun () ->
          Net.close_stream live.client ~stream:(i + 1))
    in
    Res.attempt res;
    if closed.Proto.closed_pos <> s.steps then Res.fail res "closed position"
  done;
  let wall = float_of_int (Clock.now_ns () - t0 - !probe_ns) *. 1e-9 in
  st.final_bytes <- Array.init k (fun i -> read_file (ckpt_path live i));
  stop live;
  (st, wall)

(* In-process twins, never closed: each tenant's trace through
   Engine.ingest_batch_quiet in the same batches.  Socket ≡ pipe: the
   checkpoint written when the socket tenant was closed midway equals the
   twin's at that position.  Resumed ≡ uninterrupted: the final
   checkpoint of the re-opened tenant equals the twin's. *)
let oracle ctx s (st : pass_stats) =
  for i = 0 to k - 1 do
    let p = payload ctx i in
    let e =
      Engine.create ~epsilon:p.Proto.epsilon ~alg:p.Proto.alg ~seed:p.Proto.seed
        (Rbgp_ring.Instance.blocks ~n ~ell)
    in
    let at = ref 0 and mid = ref "" in
    while !at < s.steps do
      let len = min s.batch (s.steps - !at) in
      Engine.ingest_batch_quiet e (Array.sub s.traces.(i) !at len);
      at := !at + len;
      if !at = st.mid_pos.(i) then mid := Checkpoint.to_string (Engine.checkpoint e)
    done;
    let id = fst tenants.(i) in
    Res.check ctx.res (id ^ ": socket ≡ pipe checkpoint bytes")
      (String.equal !mid st.mid_bytes.(i));
    Res.check ctx.res (id ^ ": resumed ≡ uninterrupted checkpoint bytes")
      (String.equal (Checkpoint.to_string (Engine.checkpoint e)) st.final_bytes.(i))
  done

let run ctx =
  let steps, batch, ckpt_every =
    if ctx.tiny then (2_000, 128, 500) else (100_000, 1024, 40_000)
  in
  let setups, s = setup_thrice (setup ctx ~steps ~batch ~ckpt_every) in
  let gc = ref [] and first = ref None in
  let total = float_of_int (k * steps) in
  let passes, calls =
    repeat
      ~seconds:(if ctx.trace then ctx.seconds /. 2. else ctx.seconds)
      ~min_passes:2
      (fun i calls ->
        let ((st, _) as r), minor, major =
          gc_during (fun () -> pass ctx s calls (Printf.sprintf "p%d" i))
        in
        gc := (minor /. total, float_of_int major) :: !gc;
        (* only the first pass keeps its checkpoint bytes: holding every
           pass's would make heap_peak_mb depend on the number of passes *)
        (match !first with
        | None -> first := Some st
        | Some f ->
            Res.check ctx.res "tenants-socket: every pass ends in the same checkpoints"
              (st.final_bytes = f.final_bytes && st.mid_bytes = f.mid_bytes);
            st.mid_bytes <- [||];
            st.final_bytes <- [||]);
        r)
  in
  let timings = List.map snd passes in
  let st = Option.get !first in
  let r = ctx.res in
  if not ctx.trace then report_e2e ctx ~setup:setups ~passes:timings ~units:total
  else begin
    report_tail ctx calls timings;
    Res.set r "gc.minor_words_per_req" (median (List.map fst !gc));
    Res.set r "gc.major_collections" (median (List.map snd !gc));
    let med f = median (List.map (fun (p, _) -> f p) passes) in
    Res.set r "pool.parallel_frac"
      (med (fun p -> float_of_int p.pool_parallel /. float_of_int (max 1 p.pool_calls)));
    Res.set r "checkpoint.write_ms" (median (List.concat_map (fun (p, _) -> p.ckpt_ms) passes));
    Res.set r "http.scrape_us" (median (List.concat_map (fun (p, _) -> p.scrape_us) passes));
    Res.set r "resume.ms" (med (fun p -> p.resume_ms));
    Res.set r "resume.read_ms" (med (fun p -> p.read_ms));
    Res.set r "resume.replayed_reqs" (float_of_int st.replayed);
    Res.set r "net.rpc_self_us"
      (med (fun p -> float_of_int (p.rpc_ns - p.rpc_busy_ns) /. float_of_int p.rpcs /. 1000.));
    Res.set r "net.steps_per_rpc"
      (med (fun p -> float_of_int p.rpc_pumps /. float_of_int p.rpcs));
    Res.set r "checkpoint.bytes"
      (float_of_int (Array.fold_left (fun a b -> a + String.length b) 0 st.final_bytes));
    Res.set r "checkpoint.prefix_len"
      (float_of_int (Array.fold_left (fun a b -> a + (Checkpoint.of_string b).Checkpoint.pos) 0 st.final_bytes));
    let cost =
      Array.fold_left
        (fun a b ->
          let c = Checkpoint.of_string b in
          a + c.Checkpoint.comm + c.Checkpoint.mig)
        0 st.final_bytes
    in
    Res.set r "cost.per_kreq" (1000. *. float_of_int cost /. total);
    Gc.full_major ();
    let _, wall = Span.traced (fun () -> pass ctx s (Hist.create ()) "traced") in
    (* probes are out of the untraced walls; take them out here too *)
    let wall = wall - Span.total_ns Span.Probe in
    overhead ctx ~traced_wall:wall ~untraced:timings;
    let self l = Span.self_ns l in
    List.iter
      (fun (layer, ns) -> share ctx layer ns ~wall)
      [ ("rpc", self Span.Rpc);
        ("net_step", self Span.Step);
        ("engine", self Span.Engine_busy);
        ("checkpoint", self Span.Ckpt);
        ("resume", self Span.Close + self Span.Open);
        ("http", self Span.Http) ];
    Res.set r "waterfall.unattributed_frac"
      (float_of_int (self Span.Root) /. float_of_int wall)
  end;
  oracle ctx s st
