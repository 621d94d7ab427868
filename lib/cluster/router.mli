(** The cluster router: fans client requests across N shard daemons
    ({!Ssp_server.Server.serve} with a TCP listener) placed on a
    consistent-hash {!Ring}.

    Placement: every work request carries a stable affinity key —
    program identity x scale x pipeline, the same identity that keys
    the shards' content-addressed caches — so repeated requests (and
    the adapt/sim pair over one program) hit the same shard's warm
    cache. [Stats], [Ping] and [Shutdown] are control requests answered
    by the router itself; its [Stats] reply merges every live shard's
    snapshot with its own ({!Ssp_server.Snapshot.merge}).

    Replication (factor 2): with [replicate] on, the primary's reply to
    an adapt miss carries the artifacts it just published and the router
    writes them through to the ring successor — killing the primary
    mid-campaign degrades to a {e warm} hit on the replica, not a cold
    recompute. Failover replies carry artifacts unconditionally so the
    router read-repairs the primary once it returns; blobs aimed at a
    quarantined node park in a hinted-handoff buffer of at most 256
    (key, blob) pairs across all nodes, flushed when its breaker
    closes. Overflow is dropped and counted: hints are an availability
    optimisation, not a durability promise.

    Circuit breakers: a failed shard is quarantined with capped
    exponential backoff and decorrelated jitter ({!next_backoff}), and
    re-admitted only after a cheap [Ping] probe succeeds — half-open
    probing risks a probe, never real traffic.

    Deadlines: a request arriving with a deadline budget spends that
    budget, not the router's own timeout. Each shard attempt is stamped
    (and socket-bounded) with the remainder; an exhausted budget becomes
    a structured [Deadline_exceeded] (stage ["router"]) instead of more
    doomed attempts.

    Degraded mode, never wrong bytes: when every shard has failed the
    client gets a structured [Error_reply] (pass ["router"]) naming each
    attempt. {!Ssp_server.Proto.response.Busy_reply} is backpressure,
    not failure: it is forwarded to the client un-failed-over so
    admission control and cache affinity keep their meaning. *)

type config = {
  socket : string option;  (** Unix-domain listener (unlinked on exit) *)
  tcp : (string * int) option;
      (** TCP listener; port 0 binds ephemeral (reported via [ready]) *)
  shards : (string * int) list;  (** the shard TCP endpoints *)
  quarantine_s : float;
      (** breaker backoff {e base}: the first quarantine after a failure
          is roughly this long, growing per consecutive failure up to
          30 s *)
  probe_interval_s : float;
      (** how often the prober thread scans for quarantined shards whose
          backoff expired and pings them *)
  shard_timeout_s : float;
      (** socket timeout per shard exchange when the request carries no
          deadline; a shard that accepts but never replies counts as
          dead instead of hanging the client *)
  replicate : bool;
      (** write adapt artifacts through to the ring successor (and
          read-repair a recovered primary) *)
}

val default_config : shards:(string * int) list -> config
(** No listeners bound (set [socket] and/or [tcp]), [quarantine_s = 2.],
    [probe_interval_s = 0.25], [shard_timeout_s = 120.],
    [replicate = true]. The ring is {!Ring.create}'s, which takes no
    settings, so any process that builds a ring over the same shards
    places keys as the router does, and frames are bounded by
    {!Ssp_server.Proto.default_max_frame} on both sides. *)

val node_of_shard : string * int -> string
(** The ring node id of a shard endpoint: ["host:port"]. *)

val next_backoff : base:float -> cap:float -> prev:float -> float -> float
(** [next_backoff ~base ~cap ~prev u] is the breaker's next quarantine
    length: decorrelated jitter, drawn uniformly (by [u] in [0, 1))
    from [[base, min cap (3 * prev)]] — geometric growth across
    consecutive failures, decorrelated across threads and routers.
    Pure; exposed for tests. *)

val affinity_key : Ssp_server.Proto.request -> string option
(** The placement key of a work request ([None] for control requests).
    Deterministic across processes; deliberately ignores the [ssp]
    flag and the tenant so all variants of one program co-locate. *)

val serve : ?ready:(tcp_port:int option -> unit) -> config -> unit
(** Bind the router's listeners and serve until a [Shutdown] request
    (blocking). [ready] fires once all listeners are bound. Raises
    [Ssp_ir.Error.Error] when no listener or no shard is configured,
    [Unix.Unix_error] when a listener cannot be bound (leaving no fd
    open and no socket file behind; see
    {!Ssp_server.Server.with_listeners}). Telemetry (when
    enabled): [router.requests], [router.failover], [router.busy],
    [router.degraded], [router.deadline.shed], per-shard
    [router.shard.<node>.requests] / [.failed], per-tenant
    [router.tenant.<t>.requests]; replication:
    [router.replicate.ok] / [.failed], [router.read_repair],
    [router.hinted_handoff.stored] / [.flushed] / [.dropped], hist
    [router.replicate_ms]; breaker: [router.breaker.open] / [.close] /
    [.probe] / [.probe_ok] / [.probe_failed]. *)
