let max_request_bytes = 8192

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let request_complete s =
  contains_sub s "\r\n\r\n" || contains_sub s "\n\n"

let reason_of = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 431 -> "Request Header Fields Too Large"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status (reason_of status) content_type (String.length body) body

let state_string tn =
  match Tenant.state tn with
  | Tenant.Serving -> "serving"
  | Tenant.Closed -> "closed"
  | Tenant.Dead _ -> "dead"

(* Tenant ids are validated to [A-Za-z0-9._-] at open time, so label
   values and JSON strings below need no escaping. *)
let metrics_body router =
  let tns = Tenant.tenants router in
  let series =
    List.filter_map
      (fun tn ->
        match Tenant.metrics_snapshot tn with
        | Some s ->
            Some
              ( [ ("tenant", Tenant.id tn); ("alg", (Tenant.config tn).Proto.alg) ],
                s )
        | None -> None)
      tns
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Metrics.prometheus_exposition series);
  Buffer.add_string buf
    "# HELP rbgp_tenant_up Tenant state: 1 serving, 0 closed or dead.\n\
     # TYPE rbgp_tenant_up gauge\n";
  List.iter
    (fun tn ->
      let up = match Tenant.state tn with Tenant.Serving -> 1 | _ -> 0 in
      Buffer.add_string buf
        (Printf.sprintf "rbgp_tenant_up{tenant=\"%s\"} %d\n" (Tenant.id tn) up))
    tns;
  Buffer.add_string buf
    "# HELP rbgp_tenant_position Requests served (including those before \
     a resumed checkpoint).\n\
     # TYPE rbgp_tenant_position gauge\n";
  List.iter
    (fun tn ->
      Buffer.add_string buf
        (Printf.sprintf "rbgp_tenant_position{tenant=\"%s\"} %d\n"
           (Tenant.id tn) (Tenant.pos tn)))
    tns;
  Buffer.add_string buf
    "# HELP rbgp_checkpoint_age_seconds Seconds since the tenant's last \
     durable checkpoint.\n\
     # TYPE rbgp_checkpoint_age_seconds gauge\n";
  List.iter
    (fun tn ->
      match Tenant.ckpt_age_s tn with
      | Some age ->
          Buffer.add_string buf
            (Printf.sprintf "rbgp_checkpoint_age_seconds{tenant=\"%s\"} %.3f\n"
               (Tenant.id tn) age)
      | None -> ())
    tns;
  Buffer.contents buf

let tenant_json tn =
  let cfg = Tenant.config tn in
  let metrics =
    match Tenant.metrics_snapshot tn with
    | Some s -> Metrics.json_of_snapshot s
    | None -> "null"
  in
  let age =
    match Tenant.ckpt_age_s tn with
    | Some a -> Printf.sprintf "%.3f" a
    | None -> "null"
  in
  Printf.sprintf
    "{\"id\":\"%s\",\"alg\":\"%s\",\"n\":%d,\"ell\":%d,\"epsilon\":%g,\
     \"seed\":%d,\"state\":\"%s\",\"pos\":%d,\"ckpt_age_s\":%s,\
     \"metrics\":%s}"
    (Tenant.id tn) cfg.Proto.alg cfg.Proto.n cfg.Proto.ell cfg.Proto.epsilon
    cfg.Proto.seed (state_string tn) (Tenant.pos tn) age metrics

let tenants_body router =
  let tns = Tenant.tenants router in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"tenants\":[";
  List.iteri
    (fun i tn ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (tenant_json tn))
    tns;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* First line only: [METHOD SP target SP version].  We never need the
   headers, and GET requests have no body. *)
let parse_request_line s =
  let line_end =
    match String.index_opt s '\n' with
    | Some i -> if i > 0 && Char.equal s.[i - 1] '\r' then i - 1 else i
    | None -> String.length s
  in
  let line = String.sub s 0 line_end in
  match String.split_on_char ' ' line with
  | [ meth; target; _version ] ->
      let path =
        match String.index_opt target '?' with
        | Some q -> String.sub target 0 q
        | None -> target
      in
      Some (meth, path)
  | _ -> None

let handle ~router ~draining request =
  match parse_request_line request with
  | None -> response ~status:400 ~content_type:"text/plain" "bad request\n"
  | Some (meth, path) ->
      if not (String.equal meth "GET") then
        response ~status:405 ~content_type:"text/plain" "GET only\n"
      else if String.equal path "/metrics" then
        response ~status:200
          ~content_type:"text/plain; version=0.0.4"
          (metrics_body router)
      else if String.equal path "/healthz" then
        if draining then
          response ~status:503 ~content_type:"text/plain" "draining\n"
        else response ~status:200 ~content_type:"text/plain" "ok\n"
      else if String.equal path "/tenants" then
        response ~status:200 ~content_type:"application/json"
          (tenants_body router)
      else response ~status:404 ~content_type:"text/plain" "not found\n"
