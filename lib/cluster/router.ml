(* The cluster router: a thin process that owns no pipeline state, only
   the consistent-hash ring, the per-shard circuit breakers, and the
   hinted-handoff buffer.

   Each client request is keyed by the identity that also keys the
   shards' content-addressed caches (program x scale x pipeline — the
   cheap, router-computable proxy for hash(program) x hash(profile),
   since profiles are a deterministic function of program and config),
   and forwarded to the key's shard over TCP. A shard that cannot be
   reached, dies mid-reply, or times out trips its breaker and the
   request retries on the ring's next live node — safe, because requests
   are idempotent: any shard computes the same bytes, the failover only
   costs the warm cache. When no shard answers, the client gets a
   structured degraded-mode error naming every attempt — degraded is
   never wrong, and never a hang.

   Replication (factor 2): the primary's reply to an adapt miss carries
   the artifacts it just published, and the router writes them through
   to the ring successor — so killing the primary mid-campaign degrades
   to a *warm* hit on the replica, not a cold recompute. A failover
   reply carries artifacts unconditionally so the router can read-repair
   the primary once it returns; while a replication target is down its
   blobs park in a bounded hinted-handoff buffer, flushed when the
   breaker closes.

   Breakers: a failed shard is quarantined with capped exponential
   backoff and decorrelated jitter (a flapping shard is not hammered in
   lockstep by every router thread), and re-admitted only after a cheap
   Ping probe succeeds — half-open probing risks a probe, never real
   traffic.

   Deadlines: the router spends the request's remaining budget, not its
   own timeout — each shard attempt is stamped (and socket-bounded) with
   what is left, and a budget that runs out mid-failover becomes a
   structured Deadline_exceeded instead of more doomed attempts.

   Busy replies are NOT failed over: admission backpressure means the
   key's home shard is saturated, and spilling its traffic onto
   neighbours would defeat both the fairness accounting and the cache
   affinity. The client honors the retry-after instead.

   Concurrency: one blocking thread per client connection (routing is
   pure I/O; the select-loop machinery of the shards would buy nothing
   here), one prober thread, mutex-guarded breaker/hint tables, and
   per-request shard connections. *)

module T = Ssp_telemetry.Telemetry
module Proto = Ssp_server.Proto
module Client = Ssp_server.Client
module Server = Ssp_server.Server
module Snapshot = Ssp_server.Snapshot
module F = Ssp_fault.Fault

(* Replica-write failure injection: a fired write-through counts as
   failed and parks its blobs as hints, exercising the handoff path
   without needing a real network fault. *)
let replica_write_fault = F.site "cluster.replica_write"

type config = {
  socket : string option;
  tcp : (string * int) option;
  shards : (string * int) list;
  quarantine_s : float;
  replicate : bool;
}

(* Total (key, blob) pairs the hinted-handoff buffer holds across all
   nodes; overflow is dropped (and counted). *)
let hints_max = 256

let quarantine_max_s = 30.0

(* How often the prober scans for quarantined shards whose backoff
   expired, and the socket timeout of a shard exchange whose request
   carries no deadline (a shard that accepts but never replies counts as
   dead instead of hanging the client). *)
let probe_interval_s = 0.25
let shard_timeout_s = 120.0

let default_config ~shards =
  {
    socket = None;
    tcp = None;
    shards;
    quarantine_s = 2.0;
    replicate = true;
  }

let node_of_shard (host, port) = Printf.sprintf "%s:%d" host port

(* Decorrelated jitter (capped): the next penalty is drawn uniformly
   from [base, min cap (3 * prev)], so consecutive failures grow the
   quarantine geometrically while independent routers (and threads)
   decorrelate instead of re-probing a flapping shard in lockstep.
   [u] is the uniform draw in [0, 1); pure for testability. *)
let next_backoff ~base ~cap ~prev u =
  let base = Float.max 0.001 base in
  let cap = Float.max base cap in
  let prev = Float.max base prev in
  let hi = Float.min cap (prev *. 3.) in
  Float.min cap (base +. ((hi -. base) *. u))

(* Stable affinity key of a work request: identical requests (and the
   adapt/sim pair over the same program) land on the same shard, whose
   warm cache therefore stays hot for its key range. Control requests
   are answered by the router itself. *)
let affinity_key = function
  | Proto.Adapt { prog; scale; pipeline; tenant = _ }
  | Proto.Sim { prog; scale; pipeline; ssp = _; tenant = _ }
  | Proto.Feedback { prog; scale; pipeline; tenant = _; blob = _ } ->
    let prog_part =
      match prog with
      | Proto.Workload name -> "workload\x00" ^ name
      | Proto.Source text -> "source\x00" ^ Digest.string text
    in
    Some
      (Digest.to_hex
         (Digest.string
            (Printf.sprintf "%s\x00%d\x00%s" prog_part scale pipeline)))
  | Proto.Stats | Proto.Shutdown | Proto.Put_blob _ | Proto.Ping -> None

let error_reply (e : Ssp_ir.Error.info) =
  Proto.Error_reply
    {
      pass = e.Ssp_ir.Error.pass;
      what = Ssp_ir.Error.to_string e;
      injected = e.Ssp_ir.Error.injected;
    }

(* Per-shard breaker state. [failures = 0] is closed (healthy);
   otherwise the shard is quarantined until a probe succeeds —
   [open_until] only gates when the prober may next try. *)
type breaker = {
  mutable failures : int;
  mutable open_until : float;
  mutable backoff_s : float;
  mutable probing : bool;
}

let serve ?ready cfg =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  if cfg.shards = [] then
    Ssp_ir.Error.raise_error ~pass:"router" "router needs at least one shard";
  if cfg.socket = None && cfg.tcp = None then
    Ssp_ir.Error.raise_error ~pass:"router"
      "router needs a unix socket, a TCP endpoint, or both";
  let addr_of_node =
    List.map (fun s -> (node_of_shard s, s)) cfg.shards
  in
  let ring = Ring.create (List.map fst addr_of_node) in
  (* ---- breaker + hinted-handoff state (one mutex guards both) ---- *)
  let health_mu = Mutex.create () in
  let breakers : (string, breaker) Hashtbl.t = Hashtbl.create 8 in
  let hints : (string, (string * string) list) Hashtbl.t = Hashtbl.create 8 in
  let hints_count = ref 0 in
  let locked f =
    Mutex.lock health_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock health_mu) f
  in
  let breaker_of node =
    match Hashtbl.find_opt breakers node with
    | Some b -> b
    | None ->
      let b = { failures = 0; open_until = 0.; backoff_s = 0.; probing = false } in
      Hashtbl.replace breakers node b;
      b
  in
  let quarantined node =
    locked (fun () ->
        match Hashtbl.find_opt breakers node with
        | Some b -> b.failures > 0
        | None -> false)
  in
  let mark_dead node =
    locked (fun () ->
        let b = breaker_of node in
        b.failures <- b.failures + 1;
        b.backoff_s <-
          next_backoff ~base:cfg.quarantine_s ~cap:quarantine_max_s
            ~prev:b.backoff_s (Random.float 1.);
        b.open_until <- Unix.gettimeofday () +. b.backoff_s;
        T.count "router.breaker.open" 1)
  in
  let stash_hint node kv =
    locked (fun () ->
        if !hints_count < hints_max then begin
          let old = Option.value ~default:[] (Hashtbl.find_opt hints node) in
          Hashtbl.replace hints node (kv :: old);
          incr hints_count;
          T.count "router.hinted_handoff.stored" 1
        end
        else T.count "router.hinted_handoff.dropped" 1)
  in
  let take_hints node =
    locked (fun () ->
        match Hashtbl.find_opt hints node with
        | None -> []
        | Some kvs ->
          Hashtbl.remove hints node;
          hints_count := !hints_count - List.length kvs;
          List.rev kvs)
  in
  let put_blob node (key, blob) =
    let host, port = List.assoc node addr_of_node in
    match
      Client.request_addr ~timeout_s:5.0
        (Client.Tcp (host, port))
        (Proto.Put_blob { key; blob })
    with
    | Proto.Ok_reply -> true
    | _ -> false
    | exception _ -> false
  in
  (* Closing a breaker flushes the hinted handoffs parked for the node;
     a flush failure re-stashes the rest and re-opens the breaker. *)
  let rec mark_live node =
    let was_dead =
      locked (fun () ->
          match Hashtbl.find_opt breakers node with
          | Some b when b.failures > 0 ->
            b.failures <- 0;
            b.open_until <- 0.;
            b.backoff_s <- 0.;
            true
          | _ -> false)
    in
    if was_dead then begin
      T.count "router.breaker.close" 1;
      flush_hints node
    end
  and flush_hints node =
    match take_hints node with
    | [] -> ()
    | kvs ->
      let rec deliver = function
        | [] -> ()
        | kv :: rest ->
          if put_blob node kv then begin
            T.count "router.hinted_handoff.flushed" 1;
            deliver rest
          end
          else begin
            List.iter (stash_hint node) (kv :: rest);
            mark_dead node
          end
      in
      deliver kvs
  in
  (* Write an adapt result through to the rest of the replica set
     (primary = ring owner, replica = next distinct node). A reply
     served by a non-primary carries artifacts for the primary too —
     that is the read-repair path backfilling it after an outage. *)
  let replicate ~candidates ~served artifacts =
    if cfg.replicate && artifacts <> [] then begin
      let replica_set =
        match candidates with p :: r :: _ -> [ p; r ] | l -> l
      in
      List.iter
        (fun target ->
          if not (String.equal target served) then begin
            let repair =
              match candidates with
              | primary :: _ -> String.equal target primary
              | [] -> false
            in
            if F.fire replica_write_fault then begin
              T.count "router.replicate.failed" 1;
              List.iter (stash_hint target) artifacts
            end
            else if quarantined target then
              List.iter (stash_hint target) artifacts
            else begin
              let t0 = Unix.gettimeofday () in
              let rec deliver = function
                | [] ->
                  T.count "router.replicate.ok" 1;
                  if repair then T.count "router.read_repair" 1;
                  T.record_hist "router.replicate_ms"
                    ((Unix.gettimeofday () -. t0) *. 1000.)
                | kv :: rest ->
                  if put_blob target kv then deliver rest
                  else begin
                    T.count "router.replicate.failed" 1;
                    mark_dead target;
                    List.iter (stash_hint target) (kv :: rest)
                  end
              in
              deliver artifacts
            end
          end)
        replica_set
    end
  in
  let route ~env ~t_in req key =
    let candidates = Ring.successors ring key in
    let fresh, stale = List.partition (fun n -> not (quarantined n)) candidates in
    let plan = fresh @ stale in
    let budget = env.Proto.re_deadline_ms in
    let remaining_ms () =
      if budget = 0. then None
      else Some (budget -. ((Unix.gettimeofday () -. t_in) *. 1000.))
    in
    let trace = env.Proto.re_trace in
    let failures = ref [] in
    let rec attempt idx = function
      | [] ->
        T.count "router.degraded" 1;
        ( Proto.Error_reply
            {
              pass = "router";
              what =
                Printf.sprintf "degraded: no live shard for this request; %s"
                  (String.concat "; " (List.rev !failures));
              injected = false;
            },
          [] )
      | node :: rest -> (
        match remaining_ms () with
        | Some ms when ms <= 0. ->
          (* The budget died on the way (or during a failed attempt):
             decrementing per hop is what stops a doomed request from
             burning another shard's CPU. *)
          T.count "router.deadline.shed" 1;
          ( Proto.Deadline_exceeded
              {
                stage = "router";
                budget_ms = budget;
                elapsed_ms = (Unix.gettimeofday () -. t_in) *. 1000.;
              },
            [] )
        | rem -> (
          let host, port = List.assoc node addr_of_node in
          let deadline_ms = Option.value ~default:0. rem in
          let timeout_s =
            match rem with
            | Some ms -> ms /. 1000.
            | None -> shard_timeout_s
          in
          (* The primary only attaches artifacts it just computed
             (write-through); a failover target attaches them even on a
             hit so the primary can be read-repaired. *)
          let artifacts_ask =
            if not cfg.replicate then Proto.artifacts_none
            else if idx = 0 then Proto.artifacts_on_miss
            else Proto.artifacts_always
          in
          let t0 = Unix.gettimeofday () in
          match
            Client.request_env ~timeout_s ?trace
              ~deadline_ms ~artifacts:artifacts_ask
              (Client.Tcp (host, port))
              req
          with
          | resp, shard_hops, artifacts ->
            mark_live node;
            let fwd_ms = (Unix.gettimeofday () -. t0) *. 1000. in
            T.record_hist "router.forward_ms" fwd_ms;
            T.count ("router.shard." ^ node ^ ".requests") 1;
            if idx > 0 then T.count "router.failover" 1;
            (match resp with
            | Proto.Busy_reply _ -> T.count "router.busy" 1
            | _ -> ());
            replicate ~candidates ~served:node artifacts;
            let hops =
              if trace = None then []
              else
                (* The router's forward time wraps the shard's hops; the
                   gap between them is connect + wire + shard frame I/O,
                   which the stitched trace shows as router overhead. *)
                {
                  Proto.hop_node = "router";
                  hop_stage = "forward";
                  hop_ms = fwd_ms;
                }
                :: shard_hops
            in
            (resp, hops)
          | exception e ->
            let why =
              match e with
              | Unix.Unix_error (ue, _, _) -> Unix.error_message ue
              | Ssp_ir.Error.Error err -> Ssp_ir.Error.to_string err
              | e -> Printexc.to_string e
            in
            mark_dead node;
            T.count ("router.shard." ^ node ^ ".failed") 1;
            failures := Printf.sprintf "%s (%s)" node why :: !failures;
            attempt (idx + 1) rest))
    in
    attempt 0 plan
  in
  Server.with_listeners ~pass:"router" ~socket:cfg.socket ~tcp:cfg.tcp
  @@ fun { Server.fds = listeners; tcp_port; _ } ->
  (match ready with Some f -> f ~tcp_port | None -> ());
  let running = Atomic.make true in
  (* The open connections and their threads. A connection leaves when it
     closes, so a router keeps nothing for the connections it served
     (a client opens one per request); shutdown joins the ones still
     open. *)
  let conns_mu = Mutex.create () in
  let conns : (Unix.file_descr, Thread.t) Hashtbl.t = Hashtbl.create 16 in
  (* Blocked threads cannot be woken by closing their fd out from under
     them (and the fd number could be recycled by a concurrent connect),
     so [stop] only flips the flag: every loop select-ticks on it and
     winds down within a tick. The listeners are closed by [serve]
     itself once the acceptors have joined. *)
  let stop () = Atomic.set running false in
  (* Half-open probing: one prober thread (not every request thread)
     pings quarantined shards whose backoff has expired. Success closes
     the breaker — and flushes its hinted handoffs — before any real
     traffic is risked; failure re-opens it with a longer backoff. *)
  let prober () =
    while Atomic.get running do
      Thread.delay probe_interval_s;
      let due =
        locked (fun () ->
            let now = Unix.gettimeofday () in
            Hashtbl.fold
              (fun node b acc ->
                if b.failures > 0 && now >= b.open_until && not b.probing
                then begin
                  b.probing <- true;
                  node :: acc
                end
                else acc)
              breakers [])
      in
      List.iter
        (fun node ->
          T.count "router.breaker.probe" 1;
          let host, port = List.assoc node addr_of_node in
          let ok =
            match
              Client.request_addr ~timeout_s:2.0
                (Client.Tcp (host, port))
                Proto.Ping
            with
            | Proto.Ok_reply -> true
            | _ -> false
            | exception _ -> false
          in
          locked (fun () -> (breaker_of node).probing <- false);
          if ok then begin
            T.count "router.breaker.probe_ok" 1;
            mark_live node
          end
          else begin
            T.count "router.breaker.probe_failed" 1;
            mark_dead node
          end)
        due
    done
  in
  let prober_t = Thread.create prober () in
  let handle ~env req =
    match req with
    | Proto.Ping ->
      T.count "router.requests" 1;
      `Reply (Proto.Ok_reply, [])
    | Proto.Put_blob _ ->
      T.count "router.requests" 1;
      `Reply
        ( Proto.Error_reply
            {
              pass = "router";
              what = "router owns no store; replica writes go to shards";
              injected = false;
            },
          [] )
    | Proto.Stats ->
      (* The cluster view: ask every shard on the ring for its snapshot
         and merge what answers with the router's own counters plus a
         liveness gauge per shard. *)
      T.count "router.requests" 1;
      let shard_snaps =
        List.map
          (fun (node, (host, port)) ->
            match
              Client.request_addr ~timeout_s:shard_timeout_s
                (Client.Tcp (host, port))
                Proto.Stats
            with
            | Proto.Stats_reply { snapshot } ->
              mark_live node;
              (node, Some snapshot)
            | _ -> (node, None)
            | exception _ ->
              mark_dead node;
              (node, None))
          addr_of_node
      in
      let ups =
        List.map
          (fun (node, s) ->
            ("shard." ^ node ^ ".up", if s = None then 0. else 1.))
          shard_snaps
      in
      let own = Snapshot.capture ~node:"router" ~gauges:ups () in
      let merged = Snapshot.merge (own :: List.filter_map snd shard_snaps) in
      `Reply (Proto.Stats_reply { snapshot = merged }, [])
    | Proto.Shutdown ->
      T.count "router.requests" 1;
      `Shutdown
    | Proto.Adapt _ | Proto.Sim _ | Proto.Feedback _ ->
      (* Feedback rides the same affinity hash as the adapt/sim pair, so
         a workload's attribution reports land on the shard whose cache
         holds (and re-tunes) that workload's artifacts. *)
      T.count "router.requests" 1;
      (match env.Proto.re_trace with
      | Some tc -> T.count ("trace." ^ tc.Proto.trace_id) 1
      | None -> ());
      let tenant = Proto.tenant_of req in
      T.count ("router.tenant." ^ tenant ^ ".requests") 1;
      let key = Option.get (affinity_key req) in
      `Reply (route ~env ~t_in:(Unix.gettimeofday ()) req key)
  in
  let conn_loop fd =
    let closed = ref false in
    let close () =
      if not !closed then begin
        closed := true;
        Mutex.lock conns_mu;
        Hashtbl.remove conns fd;
        Mutex.unlock conns_mu;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
    in
    let send ?(hops = []) resp =
      Proto.write_frame fd (Proto.encode_response ~hops resp)
    in
    (* Park in select, not read: a quiet connection must not pin this
       thread past shutdown, and read_frame only runs once bytes are
       already there (so it cannot block on an idle peer). *)
    let rec wait_readable () =
      if not (Atomic.get running) then false
      else
        match Unix.select [ fd ] [] [] 0.25 with
        | [], _, _ -> wait_readable ()
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable ()
    in
    (try
       let continue = ref true in
       while !continue do
         if not (wait_readable ()) then continue := false
         else
         match Proto.read_frame fd with
         | None -> continue := false
         | Some payload -> (
           match Proto.decode_request_env payload with
           | req, env -> (
             match handle ~env req with
             | `Reply (resp, hops) -> send ~hops resp
             | `Shutdown ->
               send Proto.Ok_reply;
               stop ();
               continue := false)
           | exception Ssp_ir.Error.Error e ->
             (* A hostile payload gets a structured reply, then loses
                its connection (framing state is untrustworthy). *)
             send (error_reply e);
             continue := false
           | exception e ->
             send
               (Proto.Error_reply
                  {
                    pass = "proto";
                    what = Printexc.to_string e;
                    injected = false;
                  });
             continue := false)
       done
     with
    | Unix.Unix_error _ | Ssp_ir.Error.Error _ -> ()
    | Sys_error _ -> ());
    close ()
  in
  let accept_loop lfd =
    let continue = ref true in
    while !continue && Atomic.get running do
      match Unix.select [ lfd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept lfd with
        | afd, _ ->
          (try Unix.setsockopt afd Unix.TCP_NODELAY true
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          (* Under the lock, so the thread cannot leave the table
             before it is in it. *)
          Mutex.protect conns_mu (fun () ->
              Hashtbl.replace conns afd (Thread.create conn_loop afd))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> continue := false
    done
  in
  let acceptors = List.map (fun lfd -> Thread.create accept_loop lfd) listeners in
  List.iter Thread.join acceptors;
  (* stop() has run and the acceptors are gone; conn threads notice the
     flag within one select tick, the prober within one probe tick. *)
  Thread.join prober_t;
  Mutex.protect conns_mu (fun () ->
      Hashtbl.fold (fun _ th acc -> th :: acc) conns [])
  |> List.iter Thread.join
