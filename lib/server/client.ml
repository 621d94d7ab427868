type addr = Unix_sock of string | Tcp of string * int

let resolve_host ~pass host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      Ssp_ir.Error.raise_error ~pass ("cannot resolve host " ^ host))

let connect addr =
  match addr with
  | Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e)
  | Tcp (host, port) ->
    let ip = resolve_host ~pass:"proto" host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.connect fd (Unix.ADDR_INET (ip, port))
     with
    | () -> fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e)

let request_env ?timeout_s ?trace ?(deadline_ms = 0.) ?artifacts
    addr req =
  let fd = connect addr in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* When the request carries a deadline budget, the socket timeout is
     the budget: the per-hop timeout collapses into the end-to-end
     deadline instead of living an independent life. *)
  let timeout_s =
    if deadline_ms > 0. then
      Some
        (match timeout_s with
        | Some t when t > 0. -> Float.min t (deadline_ms /. 1000.)
        | _ -> deadline_ms /. 1000.)
    else timeout_s
  in
  (match timeout_s with
  | Some t when t > 0. -> (
    (* A peer that accepts but never replies surfaces as EAGAIN instead
       of a hung client (the router treats it as a dead shard). *)
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
    with Unix.Unix_error _ -> ())
  | _ -> ());
  Proto.write_frame fd (Proto.encode_request ?trace ~deadline_ms ?artifacts req);
  match Proto.read_frame fd with
  | Some payload -> Proto.decode_response_env payload
  | None ->
    Ssp_ir.Error.raise_error ~pass:"proto"
      "server closed the connection without replying"

let request_hops ?timeout_s ?trace ?deadline_ms addr req =
  let resp, hops, _ = request_env ?timeout_s ?trace ?deadline_ms addr req in
  (resp, hops)

let request_addr ?timeout_s addr req =
  fst (request_hops ?timeout_s addr req)

let request ~socket req = request_addr (Unix_sock socket) req

(* ---- transient-failure retry with capped jittered backoff ---- *)

(* A daemon restarting, a listen backlog overflowing, or a router
   failing over produces exactly these: the connection is refused or
   dies before a reply. Retrying them is safe because every request is
   idempotent (pure computation + content-addressed cache). *)
let transient_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
  | Unix.ENETUNREACH | Unix.EHOSTUNREACH | Unix.ETIMEDOUT | Unix.EAGAIN
  | Unix.EINTR ->
    true
  | _ -> false

(* Deciding to wait is deterministic; only the jitter draws randomness,
   so retries from a fleet of clients spread out instead of thundering
   back in lockstep. *)
let jittered d = d *. (0.5 +. Random.float 1.0)

let base_delay_s = 0.05
let max_delay_s = 2.0

let request_retry_hops ?(attempts = 5) ?on_wait ?trace ?deadline_s addr req =
  let t_start = Unix.gettimeofday () in
  (* The client mints the end-to-end budget; every attempt (and every
     backoff sleep) spends it. A budget that runs out mid-retry becomes
     a local structured shed — the server's time is not worth burning on
     a reply nobody is waiting for. *)
  let remaining_ms () =
    match deadline_s with
    | None -> None
    | Some s -> Some ((s *. 1000.) -. ((Unix.gettimeofday () -. t_start) *. 1000.))
  in
  let expired stage =
    ( Proto.Deadline_exceeded
        {
          stage;
          budget_ms = Option.value ~default:0. deadline_s *. 1000.;
          elapsed_ms = (Unix.gettimeofday () -. t_start) *. 1000.;
        },
      [] )
  in
  let wait reason d =
    let d = jittered (Float.min max_delay_s (Float.max 0.001 d)) in
    (match on_wait with Some f -> f ~reason ~delay_s:d | None -> ());
    Unix.sleepf d
  in
  let rec go k =
    match remaining_ms () with
    | Some ms when ms <= 0. -> expired "client"
    | rem -> (
      let deadline_ms = Option.value ~default:0. rem in
      match request_hops ?trace ~deadline_ms addr req with
      | Proto.Busy_reply { retry_after_s }, _ when k < attempts ->
        (* Admission backpressure: honor the server's retry-after hint. *)
        wait "server saturated" (Float.max retry_after_s base_delay_s);
        go (k + 1)
      | resp -> resp
      | exception Unix.Unix_error (e, _, _)
        when k < attempts && transient_error e ->
        wait (Unix.error_message e) (base_delay_s *. (2. ** float_of_int k));
        go (k + 1))
  in
  go 0

let request_retry ?attempts ?on_wait ?deadline_s addr req =
  fst (request_retry_hops ?attempts ?on_wait ?deadline_s addr req)
