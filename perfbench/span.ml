(* Bench-side spans around calls into the code under test.

   A span is opened and closed by the benchmark itself (nothing inside
   lib/ is instrumented).  Spans nest on a stack, so a layer's self time is
   its duration minus the time its child spans cover.  Per-layer totals
   are accumulated as spans close; the first [log_cap] spans are also kept
   in memory (with their parent layer and the id of the request or call
   they belong to) and written out at the end of the run.  Disabled, [enter]
   and [leave] cost one load and a branch. *)

type layer =
  | Root  (** the benchmark's own loop: time outside every other span *)
  | Source
  | Engine
  | Jsonl
  | Metrics_json
  | Solver
  | Simulator
  | Metrics_obs
  | Rpc
  | Step
  | Engine_busy
  | Ckpt
  | Close
  | Open
  | Probe  (** benchmark-side checks inside a pass, kept out of its wall time *)
  | Http
  | Table

let layers =
  [| Root; Source; Engine; Jsonl; Metrics_json; Solver; Simulator; Metrics_obs;
     Rpc; Step; Engine_busy; Ckpt; Close; Open; Probe; Http; Table |]

let id = function
  | Root -> 0 | Source -> 1 | Engine -> 2 | Jsonl -> 3 | Metrics_json -> 4
  | Solver -> 5 | Simulator -> 6 | Metrics_obs -> 7 | Rpc -> 8 | Step -> 9
  | Engine_busy -> 10 | Ckpt -> 11 | Close -> 12 | Open -> 13
  | Probe -> 14 | Http -> 15 | Table -> 16

let name = function
  | Root -> "root" | Source -> "source" | Engine -> "engine"
  | Jsonl -> "jsonl" | Metrics_json -> "metrics_json" | Solver -> "solver"
  | Simulator -> "simulator" | Metrics_obs -> "metrics_obs" | Rpc -> "rpc"
  | Step -> "net_step" | Engine_busy -> "engine_busy" | Ckpt -> "checkpoint"
  | Close -> "close" | Open -> "open" | Probe -> "probe"
  | Http -> "http" | Table -> "table"

let nlayers = Array.length layers
let max_depth = 16
let log_cap = 200_000

let enabled = ref false
let request = ref 0 (* id shared by the spans of one request or call *)

let depth = ref 0
let st_layer = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0

let total = Array.make nlayers 0
let self = Array.make nlayers 0

let logged = ref 0
let dropped = ref 0
let log_req = Array.make log_cap 0
let log_layer = Array.make log_cap 0
let log_parent = Array.make log_cap 0
let log_start = Array.make log_cap 0
let log_stop = Array.make log_cap 0

let reset () =
  depth := 0;
  Array.fill total 0 nlayers 0;
  Array.fill self 0 nlayers 0

let enter l =
  if !enabled then begin
    let d = !depth in
    st_layer.(d) <- id l;
    st_child.(d) <- 0;
    st_start.(d) <- Clock.now_ns ();
    depth := d + 1
  end

let leave () =
  if !enabled then begin
    let stop = Clock.now_ns () in
    let d = !depth - 1 in
    depth := d;
    let l = st_layer.(d) and dur = stop - st_start.(d) in
    total.(l) <- total.(l) + dur;
    self.(l) <- self.(l) + dur - st_child.(d);
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    let i = !logged in
    if i < log_cap then begin
      log_req.(i) <- !request;
      log_layer.(i) <- l;
      log_parent.(i) <- (if d > 0 then st_layer.(d - 1) else -1);
      log_start.(i) <- st_start.(d);
      log_stop.(i) <- stop;
      logged := i + 1
    end
    else incr dropped
  end

(* Move [ns] of self time from one layer to another: used to carve time a
   span covers but the benchmark cannot bracket (the tenant engine's busy
   time inside a server step, read from its own metrics) out of the
   enclosing layer. *)
let transfer ~from ~into ns =
  if !enabled then begin
    self.(id from) <- self.(id from) - ns;
    self.(id into) <- self.(id into) + ns;
    total.(id into) <- total.(id into) + ns
  end

let total_ns l = total.(id l)
let self_ns l = self.(id l)

(* Run [f] inside a root span with tracing on; returns its result and the
   root span's wall time.  Totals are reset first, so they describe [f]
   alone. *)
let traced f =
  reset ();
  enabled := true;
  enter Root;
  let r =
    Fun.protect ~finally:(fun () ->
        leave ();
        enabled := false)
      f
  in
  (r, total_ns Root)

let write_log path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "# spans kept: %d, dropped past the cap: %d\n" !logged
    !dropped;
  output_string oc "request\tlayer\tparent\tstart_ns\tstop_ns\n";
  for i = 0 to !logged - 1 do
    Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\n" log_req.(i)
      (name layers.(log_layer.(i)))
      (if log_parent.(i) < 0 then "-" else name layers.(log_parent.(i)))
      log_start.(i) log_stop.(i)
  done
