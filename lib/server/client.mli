(** Blocking client for the adaptation daemon and the cluster router:
    connect (Unix socket or TCP), send one framed request, read the
    framed response, close. *)

type addr = Unix_sock of string | Tcp of string * int

val request_addr : ?timeout_s:float -> addr -> Proto.request -> Proto.response
(** One request/response exchange. Raises [Unix.Unix_error] when the
    endpoint cannot be reached and [Ssp_ir.Error.Error] (pass ["proto"])
    when the reply is malformed or the connection dies mid-reply. TCP
    connections set [TCP_NODELAY]. [timeout_s] arms [SO_RCVTIMEO] /
    [SO_SNDTIMEO] so a peer that accepts but never replies raises
    [EAGAIN] instead of hanging the caller. *)

val request_hops :
  ?timeout_s:float ->
  ?trace:Proto.trace_ctx ->
  ?deadline_ms:float ->
  addr ->
  Proto.request ->
  Proto.response * Proto.hop list
(** {!request_addr} that also propagates a trace context into the
    request envelope and returns the per-hop latency breakdown stamped
    into the reply (empty from untraced peers).
    [deadline_ms] (> 0) stamps the remaining end-to-end budget into the
    envelope and caps the socket timeout at the budget — with a
    deadline in play there is no independent per-hop timeout. *)

val request_env :
  ?timeout_s:float ->
  ?trace:Proto.trace_ctx ->
  ?deadline_ms:float ->
  ?artifacts:int ->
  addr ->
  Proto.request ->
  Proto.response * Proto.hop list * (string * string) list
(** The full exchange: additionally sets the envelope's artifact ask
    ({!Proto.artifacts_on_miss} / {!Proto.artifacts_always}) and
    returns the artifact [(key, blob)] list the shard attached — the
    router's write-through/read-repair source. *)

val request : socket:string -> Proto.request -> Proto.response
(** [request_addr] over a Unix-domain socket (the pre-cluster API). *)

val request_retry :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?on_wait:(reason:string -> delay_s:float -> unit) ->
  ?deadline_s:float ->
  addr ->
  Proto.request ->
  Proto.response
(** {!request_addr} with capped jittered backoff, safe because requests
    are idempotent. Retries up to [attempts] (default 5) extra times on
    (a) transient connect/write failures — refused or reset connections,
    [EPIPE], a daemon socket not there yet — with exponential backoff
    from [base_delay_s] (default 0.05 s), and (b) {!Proto.Busy_reply}
    admission rejections, honoring the server's retry-after hint. Every
    delay is capped at 2 s and jittered by x[0.5, 1.5); [on_wait] is
    called before each sleep (CLI progress messages). When attempts run
    out the last [Busy_reply] is returned (or the last exception
    re-raised) so the caller sees the true outcome. Non-transient errors
    and structured [Error_reply]s are never retried.

    [deadline_s] mints an end-to-end budget covering {e all} attempts
    and backoff sleeps: each attempt stamps the remaining budget into
    its envelope, and once it runs out the call returns a local
    {!Proto.response.Deadline_exceeded} (stage ["client"]) without
    touching the wire. *)

val request_retry_hops :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?on_wait:(reason:string -> delay_s:float -> unit) ->
  ?trace:Proto.trace_ctx ->
  ?deadline_s:float ->
  addr ->
  Proto.request ->
  Proto.response * Proto.hop list
(** {!request_retry} + trace propagation + the reply's hop list, as in
    {!request_hops}. *)
