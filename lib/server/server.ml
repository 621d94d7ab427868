module T = Ssp_telemetry.Telemetry
module Store = Ssp_store.Store
module Feedback = Ssp_feedback.Feedback
module Suite = Ssp_workloads.Suite
module F = Ssp_fault.Fault

(* Deadline stamp skew: the budget is minted on the client's clock and
   spent on ours. This site simulates a skewed stamp (the budget reads
   as already expired on arrival) so tests and chaos campaigns can drive
   the admission shed path deterministically. *)
let deadline_skew = F.site "server.deadline_skew"

type config = {
  socket : string option;
  tcp : (string * int) option;
  jobs : int;
  cache : Store.Cache.t option;
  max_frame : int;
  timeout_s : float;
  max_batch : int;
  max_queue : int;
  retry_after_s : float;
  tune : bool;
}

let default_config ~socket =
  {
    socket = Some socket;
    tcp = None;
    jobs = 2;
    cache = Some (Store.Cache.open_dir (Store.Cache.default_dir ()));
    max_frame = Proto.default_max_frame;
    timeout_s = 60.;
    max_batch = 32;
    max_queue = 256;
    retry_after_s = 0.2;
    tune = false;
  }

let resolve_host ~pass host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      Ssp_ir.Error.raise_error ~pass ("cannot resolve host " ^ host))

type listeners = {
  fds : Unix.file_descr list;
  tcp_fd : Unix.file_descr option;
  tcp_port : int option;
}

let listen_backlog = 64

(* The listener setup of both [serve]s (this daemon's and the router's):
   the Unix-domain socket, with any stale file unlinked first, and the
   TCP endpoint, whose bound port is reported (port 0 binds an ephemeral
   one). The fds close and the socket file is unlinked when [f] returns
   or raises, and also when a later bind fails, so a failed start leaks
   nothing. *)
let with_listeners ~pass ~socket ~tcp f =
  let opened = ref [] in
  let close_all () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !opened;
    Option.iter
      (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
      socket
  in
  let open_bound domain addr =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    opened := fd :: !opened;
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd listen_backlog;
    fd
  in
  let setup () =
    let unix_fd =
      Option.map
        (fun path ->
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          open_bound Unix.PF_UNIX (Unix.ADDR_UNIX path))
        socket
    in
    let tcp_fd =
      Option.map
        (fun (host, port) ->
          open_bound Unix.PF_INET (Unix.ADDR_INET (resolve_host ~pass host, port)))
        tcp
    in
    let tcp_port =
      Option.map
        (fun fd ->
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> 0)
        tcp_fd
    in
    { fds = List.filter_map Fun.id [ unix_fd; tcp_fd ]; tcp_fd; tcp_port }
  in
  match setup () with
  | l -> Fun.protect ~finally:close_all (fun () -> f l)
  | exception e ->
    close_all ();
    raise e

(* ---- request execution (runs on pool workers; must never raise) ---- *)

let config_of_pipeline name =
  match Ssp_machine.Config.of_pipeline_name name with
  | Some config -> config
  | None -> Ssp_ir.Error.raise_error ~pass:"server" ("unknown pipeline " ^ name)

(* Feedback-plane shared state: pool workers take uploads concurrently,
   so a tuning round (fold, plan, publish) is serialized here.
   The refs are cheap process-local gauges for telemetry snapshots —
   walking the store to recount them on every snapshot would make a
   [Stats] request O(cache). *)
let feedback_mu = Mutex.create ()
let feedback_last_report_s = ref 0.
let feedback_version_max = ref 0
let feedback_rounds = ref 0

(* The (key, sealed blob) pairs an adapt reply was built from, read
   straight back off the cache under the keys the request named them by
   — what the router writes through to the replica shard. Missing
   entries (no cache, eviction racing us) and blobs a replica would
   refuse for their size just drop out: replication is best-effort by
   design, and a refused write would open the router's breaker on a
   healthy shard. *)
let artifacts_of cache ~ask (sv : Feedback.served) =
  match cache with
  | Some cache
    when ask = Proto.artifacts_always
         || (ask = Proto.artifacts_on_miss && sv.Feedback.sv_status = `Miss)
    ->
    List.filter_map
      (fun key ->
        match Store.Cache.find cache key with
        | Some blob when String.length blob <= Store.max_untrusted_bytes ->
          Some (key, blob)
        | Some _ | None -> None)
      sv.Feedback.sv_keys
  | _ -> []

let error_reply (e : Ssp_ir.Error.info) =
  T.count "server.errors" 1;
  Proto.Error_reply
    { pass = e.Ssp_ir.Error.pass;
      what = Ssp_ir.Error.to_string e;
      injected = e.Ssp_ir.Error.injected }

let plain_error pass what =
  T.count "server.errors" 1;
  Proto.Error_reply { pass; what; injected = false }

let handle_env cfg ~ask req =
  try
    match req with
    | Proto.Adapt { prog; scale; pipeline; tenant = _ } ->
      let config = config_of_pipeline pipeline in
      let prog = Suite.compile ~pass:"server" prog ~scale in
      let sv = Feedback.adapt ?cache:cfg.cache ~config prog in
      if sv.Feedback.sv_status = `Hit then T.count "server.cache_hit" 1;
      ( Proto.Adapted
          {
            report = Format.asprintf "%a@." Ssp.Report.pp sv.Feedback.sv_report;
            asm = sv.Feedback.sv_text ^ "\n";
            cache = Feedback.status_string sv.Feedback.sv_status;
          },
        artifacts_of cfg.cache ~ask sv )
    | Proto.Sim { prog; scale; pipeline; ssp; tenant = _ } ->
      let config = config_of_pipeline pipeline in
      let prog = Suite.compile ~pass:"server" prog ~scale in
      let prog =
        if ssp then
          (Lazy.force (Feedback.adapt ?cache:cfg.cache ~config prog)
             .Feedback.sv_result)
            .Ssp.Adapt.prog
        else prog
      in
      let stats = Ssp_sim.Simulate.run config prog in
      (Proto.Simmed { stats = Format.asprintf "%a@." Ssp_sim.Stats.pp stats }, [])
    | Proto.Feedback { prog = _; scale = _; pipeline = _; tenant = _; blob }
      -> (
      (* Attribution upload. The sealed blob carries its own workload
         identity (the request's copy exists for router affinity); a
         blob of any other kind — or one that fails the envelope — is a
         structured error, never a crash. *)
      match Store.blob_kind blob with
      | None -> (plain_error "feedback" "blob failed its envelope check", [])
      | Some k when k <> Store.kind_feedback_report ->
        ( plain_error "feedback"
            (Printf.sprintf "expected a %s blob, got %s"
               (Store.kind_name Store.kind_feedback_report)
               (Store.kind_name k)),
          [] )
      | Some _ -> (
        let rep = Feedback.decode_report blob in
        let config = config_of_pipeline rep.Feedback.fr_pipeline in
        T.count "server.feedback.reports" 1;
        feedback_last_report_s := Unix.gettimeofday ();
        match cfg.cache with
        | None ->
          (* Cache-off deployment: nothing to persist or tune against;
             acknowledge so fire-and-forget uploaders stay happy. *)
          (Proto.Ok_reply, [])
        | Some cache ->
          (* Compiled before it persists, so a report naming no known
             program never reaches the store. *)
          let prog =
            Suite.compile ~pass:"feedback" rep.Feedback.fr_prog
              ~scale:rep.Feedback.fr_scale
          in
          Store.Cache.put cache (Feedback.report_store_key blob) blob;
          let rs = Feedback.resolve cache ~config prog in
          Mutex.protect feedback_mu (fun () ->
              let published = Feedback.published cache rs in
              if rep.Feedback.fr_version <> published.Feedback.ag_version then
                T.count "server.feedback.stale" 1;
              if cfg.tune then
                match
                  (Feedback.tune_workload cache rs
                     ( rep.Feedback.fr_prog,
                       rep.Feedback.fr_scale,
                       rep.Feedback.fr_pipeline ))
                    .Feedback.st_tuned
                with
                | Some t ->
                  T.count "server.feedback.tuned" 1;
                  incr feedback_rounds;
                  feedback_version_max :=
                    max !feedback_version_max
                      t.Feedback.td_aggregate.Feedback.ag_version
                | None -> ());
          (Proto.Ok_reply, [])))
    | Proto.Stats | Proto.Shutdown | Proto.Put_blob _ | Proto.Ping ->
      (* Control requests are answered inline by the loop. *)
      (plain_error "server" "control request routed to a worker", [])
  with
  | Ssp_ir.Error.Error e -> (error_reply e, [])
  | Ssp_minic.Frontend.Error msg -> (plain_error "frontend" msg, [])
  | Ssp_ir.Asm.Error (msg, line) ->
    (plain_error "asm" (Printf.sprintf "%s (line %d)" msg line), [])
  | Failure msg | Invalid_argument msg -> (plain_error "server" msg, [])
  | Stack_overflow -> (plain_error "server" "stack overflow", [])
  | e -> (plain_error "server" (Printexc.to_string e), [])

(* Replica-write keys index the filesystem; only the digest shape the
   cache itself mints is allowed through. *)
let valid_blob_key key =
  let n = String.length key in
  n > 0 && n <= 64
  && String.for_all
       (fun ch -> (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
       key

(* ---- connection state ---- *)

type conn = {
  fd : Unix.file_descr;  (** non-blocking *)
  inbuf : Buffer.t;  (** bytes received, not yet framed *)
  mutable inpos : int;  (** consumed prefix of [inbuf] *)
  mutable out : string;  (** encoded replies the socket has not taken *)
  mutable outpos : int;  (** flushed prefix of [out] *)
  mutable last : float;  (** last activity, for stalled-peer timeouts *)
  mutable closing : bool;  (** stop reading; close once [out] drains *)
  mutable dead : bool;
      (** fd closed; queued requests must not reply into a recycled fd *)
}

let in_pending c = Buffer.length c.inbuf - c.inpos
let out_pending c = String.length c.out - c.outpos

(* Greedily split complete frames off [c.inbuf]. Chunks accumulate in
   the buffer and only complete frames are materialized, so reassembling
   a frame that arrives in N reads costs O(frame), not O(N x frame).
   Returns the payloads plus a protocol error if the next frame declares
   an illegal length. *)
let pop_frames max_frame c =
  let frames = ref [] in
  let err = ref None in
  let continue = ref true in
  while !continue do
    let avail = in_pending c in
    if avail < 4 then continue := false
    else begin
      let n = Int32.to_int (String.get_int32_be (Buffer.sub c.inbuf c.inpos 4) 0) in
      if n < 0 || n > max_frame then begin
        err :=
          Some (Printf.sprintf "frame of %d bytes exceeds limit %d" n max_frame);
        continue := false
      end
      else if avail < 4 + n then continue := false
      else begin
        frames := Buffer.sub c.inbuf (c.inpos + 4) n :: !frames;
        c.inpos <- c.inpos + 4 + n
      end
    end
  done;
  (* Reclaim the consumed prefix: free when fully drained, compact when
     the dead prefix dominates a large buffer. *)
  if c.inpos > 0 then
    if c.inpos = Buffer.length c.inbuf then begin
      Buffer.clear c.inbuf;
      c.inpos <- 0
    end
    else if c.inpos > 65536 && c.inpos > Buffer.length c.inbuf / 2 then begin
      let rest = Buffer.sub c.inbuf c.inpos (in_pending c) in
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf rest;
      c.inpos <- 0
    end;
  (List.rev !frames, !err)

(* Push as much of [c.out] as the (non-blocking) socket will take right
   now. A full socket buffer parks the rest for select's write set; a
   dead peer marks the connection closing. Never blocks, never raises. *)
let flush_out c =
  (try
     while out_pending c > 0 do
       let w = Unix.write_substring c.fd c.out c.outpos (out_pending c) in
       if w = 0 then raise Exit;
       c.outpos <- c.outpos + w;
       c.last <- Unix.gettimeofday ()
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
  | Exit ->
    ()
  | Unix.Unix_error _ ->
    c.outpos <- 0;
    c.out <- "";
    c.closing <- true);
  if out_pending c = 0 then begin
    c.out <- "";
    c.outpos <- 0
  end

let serve ?ready cfg =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  if cfg.socket = None && cfg.tcp = None then
    Ssp_ir.Error.raise_error ~pass:"server"
      "serve needs a unix socket, a TCP endpoint, or both";
  with_listeners ~pass:"server" ~socket:cfg.socket ~tcp:cfg.tcp
  @@ fun { fds = listeners; tcp_fd; tcp_port } ->
  (* How this shard names itself in trace hops and snapshots — the TCP
     endpoint when there is one (what the router calls it), else the
     socket path. *)
  let node_name =
    match (cfg.tcp, tcp_port) with
    | Some (host, _), Some p -> host ^ ":" ^ string_of_int p
    | _ -> ( match cfg.socket with Some path -> path | None -> "server")
  in
  (match ready with Some f -> f ~tcp_port | None -> ());
  let pool = Ssp_parallel.Pool.create ~jobs:(max 1 cfg.jobs) in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let adm : (conn * Proto.request * Proto.req_env * float) Admission.t =
    Admission.create ()
  in
  let running = ref true in
  let depth_series = T.series "server.queue_depth" in
  let batch_no = ref 0 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  (* Queue a reply and opportunistically flush. Writes are non-blocking:
     a peer that stops draining parks its bytes in [c.out] (drained via
     select's write set, dropped after the timeout) — it can lose its
     own connection, but never stall the loop. *)
  let send ?(hops = []) ?(artifacts = []) c resp =
    if c.dead then ()
    else
      match Proto.frame (Proto.encode_response ~hops ~artifacts resp) with
      | framed ->
      if out_pending c = 0 then begin
        c.out <- framed;
        c.outpos <- 0
      end
      else begin
        c.out <- String.sub c.out c.outpos (out_pending c) ^ framed;
        c.outpos <- 0
      end;
      flush_out c
    | exception _ -> c.closing <- true
  in
  let chunk = Bytes.create 65536 in
  let finally () =
    (* Best-effort drain of queued replies (notably Shutdown's ack)
       before the fds go away; bounded, so a dead peer can't hold up
       exit. *)
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec drain () =
      let waiting =
        Hashtbl.fold
          (fun fd c acc -> if out_pending c > 0 then (fd, c) :: acc else acc)
          conns []
      in
      if waiting <> [] && Unix.gettimeofday () < deadline then begin
        (match Unix.select [] (List.map fst waiting) [] 0.2 with
        | _, ws, _ ->
          List.iter (fun (fd, c) -> if List.mem fd ws then flush_out c) waiting
        | exception Unix.Unix_error _ -> ());
        drain ()
      end
    in
    drain ();
    Ssp_parallel.Pool.shutdown pool;
    Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      conns;
    Hashtbl.reset conns
  in
  Fun.protect ~finally @@ fun () ->
  while !running do
    let rfds =
      listeners
      @ Hashtbl.fold
          (fun fd c acc -> if c.closing then acc else fd :: acc)
          conns []
    in
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if out_pending c > 0 then fd :: acc else acc)
        conns []
    in
    (* With admitted work still queued, poll instead of parking: the
       next batch should start as soon as this round's replies are
       queued, not a select-tick later. *)
    let tick = if Admission.backlog adm > 0 then 0.0 else 1.0 in
    let readable, writable =
      match Unix.select rfds wfds [] tick with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt conns fd with
        | Some c -> flush_out c
        | None -> ())
      writable;
    let now = Unix.gettimeofday () in
    let batch = ref [] in
    List.iter
      (fun fd ->
        if List.memq fd listeners then begin
          match Unix.accept fd with
          | afd, _ ->
            Unix.set_nonblock afd;
            (* Warm hits are small request/reply exchanges; Nagle would
               serialize them against delayed ACKs on the TCP path. *)
            if Some fd = tcp_fd then
              (try Unix.setsockopt afd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
            Hashtbl.replace conns afd
              {
                fd = afd;
                inbuf = Buffer.create 256;
                inpos = 0;
                out = "";
                outpos = 0;
                last = now;
                closing = false;
                dead = false;
              }
          | exception Unix.Unix_error _ -> ()
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some c when c.closing -> ()
          | Some c -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              (* EOF. Any half-received frame is a mid-request disconnect;
                 there is nobody left to send an error to. *)
              close_conn c
            | k ->
              c.last <- now;
              Buffer.add_subbytes c.inbuf chunk 0 k;
              let frames, err = pop_frames cfg.max_frame c in
              List.iter
                (fun payload ->
                  (* Anything a hostile payload makes the decoder raise —
                     structured or not — is an error reply, never a dead
                     connection or a dead loop. *)
                  match Proto.decode_request_env payload with
                  | req, env -> batch := (c, req, env, now) :: !batch
                  | exception Ssp_ir.Error.Error e ->
                    send c (error_reply e);
                    c.closing <- true
                  | exception e ->
                    send c (plain_error "proto" (Printexc.to_string e));
                    c.closing <- true)
                frames;
              (match err with
              | Some what ->
                send c (plain_error "proto" what);
                c.closing <- true
              | None -> ())
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
            | exception Unix.Unix_error _ -> close_conn c))
      readable;
    (* Partial frames that stopped growing get a structured timeout; a
       closing peer that stops draining its reply forfeits it. *)
    Hashtbl.iter
      (fun _ c ->
        if
          (not c.closing)
          && in_pending c > 0
          && now -. c.last > cfg.timeout_s
        then begin
          send c (plain_error "server" "request timed out (incomplete frame)");
          c.closing <- true
        end;
        if c.closing && out_pending c > 0 && now -. c.last > cfg.timeout_s
        then begin
          c.out <- "";
          c.outpos <- 0
        end)
      conns;
    (* Control requests are cheap and answered inline; work requests go
       through admission: reject with retry-after when the queue is
       saturated, otherwise queue under the declaring tenant. *)
    List.iter
      (fun (c, req, env, t0) ->
        match req with
        | Proto.Stats ->
          T.count "server.requests" 1;
          let gauges =
            ("server.queue_depth", float_of_int (Admission.backlog adm))
            :: ( "feedback.last_report_age_s",
                 if !feedback_last_report_s > 0. then
                   now -. !feedback_last_report_s
                 else -1. )
            :: ("feedback.version_max", float_of_int !feedback_version_max)
            :: ("feedback.rounds", float_of_int !feedback_rounds)
            ::
            (match cfg.cache with
            | None -> []
            | Some cache ->
              [
                ( "store.entries",
                  float_of_int (Store.Cache.entry_count cache) );
                ("store.bytes", float_of_int (Store.Cache.size_bytes cache));
                ( "store.evictions",
                  float_of_int (Store.Cache.evictions cache) );
              ])
          in
          send c
            (Proto.Stats_reply
               { snapshot = Snapshot.capture ~node:node_name ~gauges () })
        | Proto.Shutdown ->
          T.count "server.requests" 1;
          send c Proto.Ok_reply;
          running := false
        | Proto.Ping ->
          T.count "server.requests" 1;
          send c Proto.Ok_reply
        | Proto.Put_blob { key; blob } -> (
          (* Replica write-through from the router, answered inline like
             the other control requests so it can never queue behind (or
             be shed by) the work plane. These are the only bytes that
             enter the store from outside, so they are checked before
             anything touches the cache: the key must have a digest's
             shape, and the blob must pass [Store.check_untrusted] (at
             most [Store.max_untrusted_bytes] and a clean envelope; for
             an adapted result also a clean parse and validation, and a
             re-encoding to the same bytes). A hit serves an adapted
             blob's text without parsing it. The check holds this loop
             for time linear in the blob: about 0.1-0.5 ms for the suite's
             adapted programs, and the size cap bounds a hostile one. *)
          T.count "server.requests" 1;
          let reject what =
            T.count "server.replica.rejected" 1;
            send c (plain_error "store" what)
          in
          match cfg.cache with
          | None ->
            send c (plain_error "server" "replica write without a cache")
          | Some cache -> (
            if not (valid_blob_key key) then
              reject "replica key is not a cache digest"
            else
              match Store.check_untrusted blob with
              | exception Ssp_ir.Error.Error e ->
                reject ("replica blob rejected: " ^ e.Ssp_ir.Error.what)
              | () ->
                Store.Cache.put cache key blob;
                T.count "server.replica.puts" 1;
                send c Proto.Ok_reply))
        | Proto.Adapt _ | Proto.Sim _ | Proto.Feedback _ ->
          let tenant = Proto.tenant_of req in
          let d = env.Proto.re_deadline_ms in
          (* Admission shed: a budget that arrives expired (or reads as
             expired under injected stamp skew) is refused before it
             can burn queue slots or compute — the structured reply
             tells the client where its time went. *)
          let dl_expired = d < 0. || (d <> 0. && F.fire deadline_skew) in
          if dl_expired then begin
            T.count "server.deadline.shed_admission" 1;
            T.count ("server.tenant." ^ tenant ^ ".deadline_shed") 1;
            send c
              (Proto.Deadline_exceeded
                 { stage = "admission"; budget_ms = d; elapsed_ms = 0. })
          end
          else if Admission.backlog adm >= cfg.max_queue then begin
            T.count "server.rejected" 1;
            T.count ("server.tenant." ^ tenant ^ ".rejected") 1;
            send c (Proto.Busy_reply { retry_after_s = cfg.retry_after_s })
          end
          else begin
            T.count ("server.tenant." ^ tenant ^ ".requests") 1;
            if d > 0. then T.record_hist "server.deadline.slack_ms" d;
            Admission.enqueue adm ~tenant (c, req, env, t0)
          end)
      (List.rev !batch);
    (* On shutdown, every still-queued request gets a structured error
       instead of silence. *)
    if not !running then
      List.iter
        (fun (_, (c, _, _, _)) ->
          send c (plain_error "server" "server shutting down"))
        (Admission.drain adm);
    (* One bounded, tenant-fair batch across the pool per round. *)
    let work = Admission.select adm ~max:cfg.max_batch in
    if work <> [] then begin
      incr batch_no;
      T.count "server.batches" 1;
      T.sample depth_series ~x:(float_of_int !batch_no)
        ~y:(float_of_int (List.length work + Admission.backlog adm));
      let round_t0 = Unix.gettimeofday () in
      let replies =
        Ssp_parallel.Pool.map pool
          (fun (tenant, (c, req, env, t0)) ->
            let trace = env.Proto.re_trace in
            (* With a deadline in play the end-to-end budget *is* the
               queue/compute bound; the legacy per-hop [timeout_s] only
               governs budget-less requests. *)
            let deadline_at =
              if env.Proto.re_deadline_ms > 0. then
                Some (t0 +. (env.Proto.re_deadline_ms /. 1000.))
              else None
            in
            let deadline_reply stage =
              T.count ("server.deadline.shed_" ^ stage) 1;
              ( Proto.Deadline_exceeded
                  {
                    stage;
                    budget_ms = env.Proto.re_deadline_ms;
                    elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.;
                  },
                [],
                [] )
            in
            if c.dead then (plain_error "server" "client went away", [], [])
            else if
              match deadline_at with
              | Some dl -> Unix.gettimeofday () > dl
              | None -> false
            then
              (* Re-check before compute: the budget died in the queue;
                 shedding here is what keeps doomed work off the pool. *)
              deadline_reply "compute"
            else if
              deadline_at = None && Unix.gettimeofday () -. t0 > cfg.timeout_s
            then (plain_error "server" "request timed out in queue", [], [])
            else begin
              (* Timings are taken whenever the request is traced, even
                 with local telemetry off: the client paid for the trace
                 and gets real hop numbers either way. *)
              let timed = !T.enabled || trace <> None in
              let ts = if timed then Unix.gettimeofday () else 0. in
              let queue_ms = if timed then (ts -. t0) *. 1000. else 0. in
              if timed then begin
                T.record_hist "server.queue_wait_ms" queue_ms;
                ignore (Store.take_lookup_ms ())
              end;
              let run () =
                T.with_span "server.request" (fun () ->
                    handle_env cfg ~ask:env.Proto.re_artifacts req)
              in
              let (resp, artifacts), spans =
                match trace with
                | Some tc ->
                  T.count ("trace." ^ tc.Proto.trace_id) 1;
                  T.capture_spans run
                | None -> (run (), [])
              in
              let service_ms =
                if timed then (Unix.gettimeofday () -. ts) *. 1000. else 0.
              in
              let lookup_ms = if timed then Store.take_lookup_ms () else 0. in
              if timed then begin
                T.record_hist "server.service_ms" service_ms;
                T.record_hist
                  ("server.tenant." ^ tenant ^ ".service_ms")
                  service_ms
              end;
              (* Re-check before serialize: the compute is sunk cost,
                 but shipping a reply (and its artifacts) to a client
                 that stopped waiting only burns wire and framing. *)
              if
                match deadline_at with
                | Some dl -> Unix.gettimeofday () > dl
                | None -> false
              then deadline_reply "serialize"
              else
              match trace with
              | None -> (resp, [], artifacts)
              | Some _ ->
                (* The reply is encoded once more when sent; measuring a
                   throwaway encode here is the only way to get the
                   serialize cost INTO the hop list it reports. *)
                let tser = Unix.gettimeofday () in
                ignore (Proto.encode_response resp);
                let serialize_ms = (Unix.gettimeofday () -. tser) *. 1000. in
                let hop stage ms =
                  { Proto.hop_node = node_name; hop_stage = stage; hop_ms = ms }
                in
                (* Pass/sim spans ride along as nested detail (stage
                   "span:<path>"); the disjoint stages queue / compute /
                   serialize are the ones that sum to this shard's share
                   of the client-observed latency. *)
                let rec flat prefix acc (sp : T.span) =
                  if List.length acc >= 256 then acc
                  else begin
                    let path =
                      if prefix = "" then sp.T.sp_name
                      else prefix ^ "/" ^ sp.T.sp_name
                    in
                    let acc = hop ("span:" ^ path) sp.T.ms :: acc in
                    List.fold_left (flat path) acc sp.T.children
                  end
                in
                let span_hops = List.rev (List.fold_left (flat "") [] spans) in
                let hops =
                  hop "queue" queue_ms
                  :: hop "store.lookup" lookup_ms
                  :: hop "compute" (Float.max 0. (service_ms -. lookup_ms))
                  :: hop "serialize" serialize_ms
                  :: span_hops
                in
                (resp, hops, artifacts)
            end)
          work
      in
      List.iter2
        (fun (tenant, (c, _, _, _)) (resp, hops, artifacts) ->
          T.count "server.requests" 1;
          (* A worker-stage deadline shed is an answered request, but
             not a served one: the per-tenant split must let an operator
             tell useful work from doomed work. *)
          (match resp with
          | Proto.Deadline_exceeded _ ->
            T.count ("server.tenant." ^ tenant ^ ".deadline_shed") 1
          | _ -> T.count ("server.tenant." ^ tenant ^ ".served") 1);
          send ~hops ~artifacts c resp)
        work replies;
      T.record_hist "server.round_ms"
        ((Unix.gettimeofday () -. round_t0) *. 1000.)
    end;
    (* Sweep closing connections whose replies have drained (outside any
       Hashtbl.iter). Undrained ones stay for select's write set until
       they flush or time out above. *)
    let doomed =
      Hashtbl.fold
        (fun _ c acc ->
          if c.closing && out_pending c = 0 then c :: acc else acc)
        conns []
    in
    List.iter close_conn doomed
  done
