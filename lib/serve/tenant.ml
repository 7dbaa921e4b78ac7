type state = Serving | Closed | Dead of string

type tenant = {
  tid : string;
  cfg : Proto.open_payload;
  mutable engine : Engine.t option;
  mutable st : state;
  mutable snap_pos : int;  (** resume position while the engine is gone *)
  mutable mem_ckpt : Checkpoint.t option;  (** newest snapshot, in memory *)
  mutable last_ckpt_pos : int;
  mutable last_ckpt_at : float option;
  mutable last_metrics : Metrics.snapshot option;
}

type t = {
  dir : string option;
  every : int;
  keep : int;
  slots : (string, tenant) Hashtbl.t;
}

let create ?checkpoint_dir ?(checkpoint_every = 0) ?(checkpoint_keep = 3) () =
  if checkpoint_every < 0 then invalid_arg "Tenant.create: checkpoint_every";
  if checkpoint_keep < 1 then invalid_arg "Tenant.create: checkpoint_keep";
  {
    dir = checkpoint_dir;
    every = checkpoint_every;
    keep = checkpoint_keep;
    slots = Hashtbl.create 16;
  }

let valid_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  &&
  let ok = ref true in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> ok := false)
    s;
  !ok

let id tn = tn.tid
let state tn = tn.st
let config tn = tn.cfg
let engine tn = tn.engine

let pos tn =
  match tn.engine with Some e -> Engine.pos e | None -> tn.snap_pos

let metrics_snapshot tn =
  match tn.engine with
  | Some e -> Some (Metrics.snapshot (Engine.metrics e))
  | None -> tn.last_metrics

(* Wall clock, observability only: the checkpoint-age gauge never feeds
   back into serving decisions, so determinism is untouched. *)
let now () = Unix.gettimeofday ()

let ckpt_age_s tn =
  match tn.last_ckpt_at with Some at -> Some (now () -. at) | None -> None

let path_for t tid =
  match t.dir with
  | Some dir -> Some (Filename.concat dir (tid ^ ".ckpt"))
  | None -> None

let ckpt_path t tn = path_for t tn.tid

let find t tid = Hashtbl.find_opt t.slots tid

let tenants t =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) t.slots []
  |> List.sort (fun a b -> String.compare a.tid b.tid)

(* Do two configurations name the same engine?  The tenant id is not
   part of it. *)
let config_eq (a : Proto.open_payload) (b : Proto.open_payload) =
  String.equal a.alg b.alg && a.n = b.n && a.ell = b.ell && a.seed = b.seed
  && Float.equal a.epsilon b.epsilon

let checkpoint_now t tn =
  match tn.engine with
  | None -> tn.snap_pos
  | Some e ->
      let ck = Engine.checkpoint e in
      (match path_for t tn.tid with
      | Some path -> Checkpoint.write_rolling ~path ~keep:t.keep ck
      | None -> ());
      tn.mem_ckpt <- Some ck;
      tn.last_ckpt_pos <- ck.Checkpoint.pos;
      tn.last_ckpt_at <- Some (now ());
      ck.Checkpoint.pos

(* Rolling cadence on request counts, same boundary rule as the CLI
   serve loop: a checkpoint lands whenever the batch crosses a multiple
   of [every]. *)
let maybe_roll t tn ~before ~after =
  if t.every > 0 && after / t.every > before / t.every then
    ignore (checkpoint_now t tn)

(* A batch is the first [len] edges of [edges]: the socket path serves
   the connection's reused edge buffer in place. *)
let serve t tn edges ~len =
  match (tn.st, tn.engine) with
  | Serving, Some e ->
      let before = Engine.pos e in
      let ds = Array.init len (fun j -> Engine.ingest e edges.(j)) in
      maybe_roll t tn ~before ~after:(Engine.pos e);
      ds
  | _ -> failwith (Printf.sprintf "tenant %s is not serving" tn.tid)

let serve_quiet t tn edges ~len =
  match (tn.st, tn.engine) with
  | Serving, Some e ->
      let before = Engine.pos e in
      Engine.ingest_prefix_quiet e edges ~len;
      maybe_roll t tn ~before ~after:(Engine.pos e)
  | _ -> failwith (Printf.sprintf "tenant %s is not serving" tn.tid)

let closed_payload_of tn =
  match tn.engine with
  | Some e ->
      let r = Engine.result e in
      {
        Proto.closed_pos = Engine.pos e;
        closed_comm = r.Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.comm;
        closed_mig = r.Rbgp_ring.Simulator.cost.Rbgp_ring.Cost.mig;
        closed_max_load = r.Rbgp_ring.Simulator.max_load;
        closed_violations = r.Rbgp_ring.Simulator.capacity_violations;
      }
  | None -> (
      match tn.mem_ckpt with
      | Some ck ->
          {
            Proto.closed_pos = ck.Checkpoint.pos;
            closed_comm = ck.Checkpoint.comm;
            closed_mig = ck.Checkpoint.mig;
            closed_max_load = ck.Checkpoint.max_load;
            closed_violations = ck.Checkpoint.violations;
          }
      | None ->
          {
            Proto.closed_pos = tn.snap_pos;
            closed_comm = 0;
            closed_mig = 0;
            closed_max_load = 0;
            closed_violations = 0;
          })

let close t tn =
  match tn.engine with
  | Some e ->
      ignore (checkpoint_now t tn);
      let payload = closed_payload_of tn in
      tn.last_metrics <- Some (Metrics.snapshot (Engine.metrics e));
      tn.snap_pos <- Engine.pos e;
      tn.engine <- None;
      tn.st <- Closed;
      payload
  | None ->
      tn.st <- Closed;
      closed_payload_of tn

let kill _t tn reason =
  (match tn.engine with
  | Some e -> tn.last_metrics <- Some (Metrics.snapshot (Engine.metrics e))
  | None -> ());
  tn.engine <- None;
  tn.snap_pos <- tn.last_ckpt_pos;
  tn.st <- Dead reason

let drain t =
  List.iter
    (fun tn -> match tn.st with Serving -> ignore (close t tn) | _ -> ())
    (tenants t)

let make_engine (o : Proto.open_payload) =
  let inst = Rbgp_ring.Instance.blocks ~n:o.n ~ell:o.ell in
  Engine.create ~epsilon:o.epsilon ~alg:o.alg ~seed:o.seed inst

(* A durable generation to resume from, if any survives verification.
   [read_latest] already falls back past torn/corrupt generations;
   [Invalid_argument] here means every generation failed, which callers
   treat the same as nothing on disk (the in-memory snapshot, then a
   fresh start, are next in line). *)
let disk_ckpt t tid =
  match path_for t tid with
  | None -> None
  | Some path ->
      if not (Sys.file_exists path || Sys.file_exists (path ^ ".1")) then None
      else begin
        match Checkpoint.read_latest ~path () with
        | rec_ -> Some rec_.Checkpoint.ckpt
        | exception Invalid_argument _ -> None
      end

let install_engine tn e =
  tn.engine <- Some e;
  tn.st <- Serving;
  tn.snap_pos <- Engine.pos e

(* Resume a Closed/Dead slot (or adopt a previous process's checkpoint
   for a brand-new id): newest durable generation first, then the
   in-memory snapshot, then a fresh engine at position 0. *)
let revive t tn (o : Proto.open_payload) =
  let from_ckpt (ck : Checkpoint.t) =
    let was =
      { o with alg = ck.alg; n = ck.n; ell = ck.ell; epsilon = ck.epsilon;
               seed = ck.seed }
    in
    if not (config_eq was o) then
      Error
        ( Proto.err_config_mismatch,
          Printf.sprintf "tenant %s: checkpoint was %s n=%d ell=%d seed=%d"
            tn.tid was.alg was.n was.ell was.seed )
    else begin
      match Engine.resume ck with
      | e ->
          install_engine tn e;
          tn.last_ckpt_pos <- ck.Checkpoint.pos;
          tn.mem_ckpt <- Some ck;
          Ok (tn, Engine.pos e)
      | exception Failure m -> Error (Proto.err_tenant_failed, m)
      | exception Invalid_argument m -> Error (Proto.err_tenant_failed, m)
    end
  in
  match disk_ckpt t tn.tid with
  | Some ck -> from_ckpt ck
  | None -> (
      match tn.mem_ckpt with
      | Some ck -> from_ckpt ck
      | None -> (
          match make_engine o with
          | e ->
              install_engine tn e;
              Ok (tn, 0)
          | exception Invalid_argument m -> Error (Proto.err_proto, m)))

let open_tenant t (o : Proto.open_payload) =
  if not (valid_id o.tenant) then
    Error (Proto.err_proto, Printf.sprintf "bad tenant id %S" o.tenant)
  else begin
    match Hashtbl.find_opt t.slots o.tenant with
    | Some tn -> (
        if not (config_eq tn.cfg o) then
          Error
            ( Proto.err_config_mismatch,
              Printf.sprintf "tenant %s already configured as %s n=%d ell=%d"
                tn.tid tn.cfg.Proto.alg tn.cfg.Proto.n tn.cfg.Proto.ell )
        else
          match tn.st with
          | Serving -> Ok (tn, pos tn)
          | Closed | Dead _ -> revive t tn o)
    | None ->
        let tn =
          {
            tid = o.tenant;
            cfg = o;
            engine = None;
            st = Closed;
            snap_pos = 0;
            mem_ckpt = None;
            last_ckpt_pos = 0;
            last_ckpt_at = None;
            last_metrics = None;
          }
        in
        let r = revive t tn o in
        (match r with Ok _ -> Hashtbl.replace t.slots o.tenant tn | Error _ -> ());
        r
  end
