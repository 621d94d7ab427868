(** The adaptation daemon: a socket service front-ending the post-pass
    pipeline — one shard of the cluster (see {!Ssp_cluster}).

    One [serve] call binds its listeners — a Unix-domain socket, a TCP
    endpoint, or both, speaking the same framed protocol — and runs a
    single-threaded [Unix.select] accept/read loop. Complete request
    frames go through admission control: when the backlog has reached
    [max_queue] the request is answered immediately with
    {!Proto.response.Busy_reply} (retry-after backpressure, which
    well-behaved clients honor with jittered backoff); otherwise it is
    queued under its declaring tenant. Each round drains at most
    [max_batch] requests, chosen round-robin over the active tenants
    ({!Admission}), and fans them across a long-lived
    {!Ssp_parallel.Pool} — so concurrent clients share the domain pool
    and one hot tenant cannot starve the rest. [Adapt] and [Sim]
    requests are answered by the same functions as the offline tool
    ({!Ssp_workloads.Suite.compile}, {!Ssp_feedback.Feedback.adapt},
    {!Ssp_sim.Simulate.run}); with a cache configured the profile and
    the adapted artifact go through the content-addressed store, so a
    repeated request is a disk lookup, not a recompute, and a published
    tuning version is served in place of the untuned artifact.

    Robustness: every per-request failure — unknown workload, source
    that does not compile, a malformed or oversized frame, an injected
    fault — becomes a structured {!Proto.response.Error_reply}; client
    misbehaviour (mid-request disconnect, a partial frame left to rot
    past the timeout, a peer that stops draining its reply) closes that
    connection only. Connection sockets are non-blocking with replies
    buffered per connection, so no single peer can stall the loop. The
    daemon itself stops only on a [Shutdown] request, at which point any
    still-queued work is answered with a structured error rather than
    dropped. *)

type config = {
  socket : string option;
      (** Unix-domain socket path (unlinked on exit), if any *)
  tcp : (string * int) option;
      (** TCP [host, port] to bind alongside it; port 0 binds an
          ephemeral port (reported through [serve]'s [ready]) *)
  jobs : int;  (** domain-pool width for batched work requests *)
  cache : Ssp_store.Store.Cache.t option;
      (** [None] disables the artifact store ([cache = "off"] replies) *)
  max_frame : int;  (** per-frame byte limit, {!Proto.default_max_frame} *)
  timeout_s : float;
      (** per-request budget: a request still queued (or a partial frame
          still unfinished) after this many seconds gets a structured
          timeout error instead of service *)
  max_batch : int;
      (** admission: at most this many work requests fan out per round *)
  max_queue : int;
      (** admission: total backlog bound; arrivals beyond it get
          [Busy_reply] (a [max_queue] of 0 rejects all work — useful to
          drain or to exercise the retry path) *)
  retry_after_s : float;
      (** the retry-after hint carried by [Busy_reply] *)
  tune : bool;
      (** closed-loop tuning: when set, every uploaded attribution
          report runs {!Ssp_feedback.Feedback.tune_workload} on its
          workload — the round [sspc tune] runs — which publishes the
          next artifact version once the persisted reports cross the
          confidence thresholds; when unset the daemon only persists
          reports (an operator runs [sspc tune] offline) *)
}

val default_config : socket:string -> config
(** Unix socket only, [jobs = 2], a cache in
    {!Ssp_store.Store.Cache.default_dir}, [max_frame =
    Proto.default_max_frame], [timeout_s = 60.], [max_batch = 32],
    [max_queue = 256], [retry_after_s = 0.2], [tune = false]. *)

type listeners = {
  fds : Unix.file_descr list;  (** every bound listener *)
  tcp_fd : Unix.file_descr option;
  tcp_port : int option;  (** the bound TCP port (port 0 binds ephemeral) *)
}

val with_listeners :
  pass:string ->
  socket:string option ->
  tcp:(string * int) option ->
  (listeners -> 'a) ->
  'a
(** Bind and listen on the Unix-domain socket (a stale file is unlinked
    first) and the TCP endpoint ([SO_REUSEADDR]), run the function, then
    close every listener and unlink the socket file — also when the
    function raises and when a later bind fails, which re-raises its
    [Unix.Unix_error]. An unresolvable host is an [Ssp_ir.Error.Error]
    of pass [pass]. {!serve} and the cluster router both listen through
    this. *)

val serve : ?ready:(tcp_port:int option -> unit) -> config -> unit
(** Bind, listen and serve until a [Shutdown] request (blocking).
    [ready] is called once, after every listener is bound, with the
    actual TCP port (useful with port 0). Raises [Unix.Unix_error] if a
    listener cannot be bound and [Ssp_ir.Error.Error] if neither
    endpoint is configured. Telemetry (when enabled): [server.requests],
    [server.errors], [server.rejected], [server.cache_hit],
    [server.batches], per-tenant [server.tenant.<t>.requests] /
    [.served] / [.rejected], a [server.queue_depth] series sampled per
    batch (kept out of [Stats] replies, which carry the queue depth as a
    gauge), and a [server.request] span per served request. A [Stats]
    request is answered inline with {!Snapshot.capture} of this process,
    named by its TCP endpoint (else its socket path). *)
