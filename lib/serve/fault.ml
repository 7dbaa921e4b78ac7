(* Deterministic, plan-driven fault injection for the serve stack.

   A fault plan is a comma-separated spec (CLI [--faults] or the
   [RBGP_FAULTS] environment variable), e.g.

     ckpt-tear@3,read-eintr:0.01,solver-stall@5000

   Supported items:

     crash@N             raise [Injected_crash] before serving request N
     ckpt-tear@N[:K]     tear the Nth checkpoint write (1-based): only the
                         first K bytes (default len/2) reach the final
                         path, then the process "dies" ([Injected_crash])
     ckpt-flip@N         flip one bit of the Nth checkpoint write's
                         serialized bytes before the (atomic) write
     read-flip@N         corrupt the Nth request delivered by [Source]
                         (sets a high bit, guaranteeing a decode error)
     read-eintr:P        each source read raises EINTR with probability P
     read-eagain:P       likewise EAGAIN
     short-read:P        alias of read-eintr (a short read surfaces as a
                         retryable transient at the frame layer)
     solver-stall@N[:NS] request N's solve is reported NS ns slower
                         (default 1s) to the solver-budget supervisor
     seed=K              seed for the probabilistic draws (default 0x5eed)

   Counted faults (@N) fire exactly once per process: after firing they
   disarm, so a supervised restart that re-serves the same index does
   not re-fire them.  Probabilistic faults draw from a seeded [Rng], so
   a fixed plan over a fixed call sequence injects an identical fault
   schedule — the crash-matrix tests rely on this determinism.

   Every hook is a no-op behind a single [!state] match when no plan is
   configured; the quiet ingest path additionally batches its check to
   one call per block, which the bench gates at <2% overhead. *)

exception Injected_crash of string

type plan = {
  rng : Rbgp_util.Rng.t;
  mutable crash_at : int; (* request index; -1 = none / already fired *)
  mutable ckpt_tear : int; (* 1-based checkpoint-write ordinal; -1 = none *)
  tear_keep : int; (* bytes kept by the tear; -1 = half of the record *)
  mutable ckpt_flip : int; (* 1-based checkpoint-write ordinal; -1 = none *)
  mutable read_flip : int; (* 0-based delivered-request ordinal; -1 = none *)
  read_eintr : float;
  read_eagain : float;
  mutable stall_at : int; (* request index; -1 = none / already fired *)
  stall_ns : int;
  mutable ckpt_writes : int; (* checkpoint writes seen so far *)
  mutable reads : int; (* requests delivered so far *)
}

let state : plan option ref = ref None

let fail spec msg =
  invalid_arg (Printf.sprintf "Fault.configure: %s in %S" msg spec)

(* [name@n] or [name@n:k] — returns (name, n, k option). *)
let parse_at spec item i =
  let name = String.sub item 0 i in
  let rest = String.sub item (i + 1) (String.length item - i - 1) in
  let num s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> v
    | _ -> fail spec (Printf.sprintf "bad count %S for %s" s name)
  in
  match String.index_opt rest ':' with
  | None -> (name, num rest, None)
  | Some j ->
    let a = String.sub rest 0 j in
    let b = String.sub rest (j + 1) (String.length rest - j - 1) in
    (name, num a, Some (num b))

let parse spec =
  let crash_at = ref (-1) in
  let ckpt_tear = ref (-1) in
  let tear_keep = ref (-1) in
  let ckpt_flip = ref (-1) in
  let read_flip = ref (-1) in
  let read_eintr = ref 0.0 in
  let read_eagain = ref 0.0 in
  let stall_at = ref (-1) in
  let stall_ns = ref 1_000_000_000 in
  let seed = ref 0x5eed in
  let prob name s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> p
    | _ -> fail spec (Printf.sprintf "bad probability %S for %s" s name)
  in
  let parse_item item =
    match String.index_opt item '@' with
    | Some i -> (
      match parse_at spec item i with
      | "crash", n, None -> crash_at := n
      | "ckpt-tear", n, keep ->
        if n = 0 then fail spec "ckpt-tear ordinal is 1-based";
        ckpt_tear := n;
        Option.iter (fun k -> tear_keep := k) keep
      | "ckpt-flip", n, None ->
        if n = 0 then fail spec "ckpt-flip ordinal is 1-based";
        ckpt_flip := n
      | "read-flip", n, None -> read_flip := n
      | "solver-stall", n, ns ->
        stall_at := n;
        Option.iter (fun v -> stall_ns := v) ns
      | name, _, _ -> fail spec (Printf.sprintf "unknown or malformed item %S" name))
    | None -> (
      match String.index_opt item ':' with
      | Some i -> (
        let name = String.sub item 0 i in
        let rest = String.sub item (i + 1) (String.length item - i - 1) in
        match name with
        | "read-eintr" | "short-read" ->
          read_eintr := !read_eintr +. prob name rest
        | "read-eagain" -> read_eagain := prob name rest
        | _ -> fail spec (Printf.sprintf "unknown item %S" name))
      | None -> (
        match String.index_opt item '=' with
        | Some i when String.sub item 0 i = "seed" ->
          let rest = String.sub item (i + 1) (String.length item - i - 1) in
          seed :=
            (match int_of_string_opt rest with
            | Some v -> v
            | None -> fail spec (Printf.sprintf "bad seed %S" rest))
        | _ -> fail spec (Printf.sprintf "unknown item %S" item)))
  in
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> not (String.equal s ""))
  |> List.iter parse_item;
  {
    rng = Rbgp_util.Rng.create !seed;
    crash_at = !crash_at;
    ckpt_tear = !ckpt_tear;
    tear_keep = !tear_keep;
    ckpt_flip = !ckpt_flip;
    read_flip = !read_flip;
    read_eintr = !read_eintr;
    read_eagain = !read_eagain;
    stall_at = !stall_at;
    stall_ns = !stall_ns;
    ckpt_writes = 0;
    reads = 0;
  }

let configure spec =
  if String.equal (String.trim spec) "" then state := None
  else state := Some (parse spec)

let configure_from_env () =
  match Sys.getenv_opt "RBGP_FAULTS" with
  | Some spec -> configure spec
  | None -> ()

let disable () = state := None
let armed () = Option.is_some !state

(* ---- hooks ---- *)

let crash_check ~step =
  match !state with
  | None -> ()
  | Some p ->
    if p.crash_at = step then begin
      p.crash_at <- -1;
      raise (Injected_crash (Printf.sprintf "crash@%d" step))
    end

(* Does any per-request counted fault land in [lo, hi)?  The quiet batch
   path checks this once per block and falls back to the per-request
   path for blocks that contain one, so the fault lands on the exact
   request index. *)
let request_fault_pending ~lo ~hi =
  match !state with
  | None -> false
  | Some p ->
    (p.crash_at >= lo && p.crash_at < hi)
    || (p.stall_at >= lo && p.stall_at < hi)

let solver_stall_ns ~step =
  match !state with
  | None -> 0
  | Some p ->
    if p.stall_at = step then begin
      p.stall_at <- -1;
      p.stall_ns
    end
    else 0

let checkpoint_write_plan ~len =
  match !state with
  | None -> `Full
  | Some p ->
    p.ckpt_writes <- p.ckpt_writes + 1;
    if p.ckpt_writes = p.ckpt_tear then begin
      p.ckpt_tear <- -1;
      let keep = if p.tear_keep >= 0 then min p.tear_keep len else len / 2 in
      `Tear keep
    end
    else if p.ckpt_writes = p.ckpt_flip then begin
      p.ckpt_flip <- -1;
      let bit = Rbgp_util.Rng.int p.rng (max 1 (len * 8)) in
      `Flip bit
    end
    else `Full

let before_read () =
  match !state with
  | None -> ()
  | Some p ->
    if p.read_eintr > 0.0 || p.read_eagain > 0.0 then begin
      let d = Rbgp_util.Rng.float p.rng in
      if d < p.read_eintr then
        raise (Unix.Unix_error (Unix.EINTR, "read", "injected"))
      else if d < p.read_eintr +. p.read_eagain then
        raise (Unix.Unix_error (Unix.EAGAIN, "read", "injected"))
    end

let mangle_batch dst ~got =
  match !state with
  | None -> false
  | Some p ->
    let lo = p.reads in
    p.reads <- p.reads + got;
    if p.read_flip >= lo && p.read_flip < lo + got then begin
      let i = p.read_flip - lo in
      p.read_flip <- -1;
      dst.(i) <- dst.(i) lxor (1 lsl 30);
      true
    end
    else false
