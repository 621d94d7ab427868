(** Wire protocol of the adaptation service.

    Length-prefixed framing (4-byte big-endian frame length, then the
    frame payload) over a Unix-domain stream socket. Each payload starts
    with a direction magic (["SSPQ"] request / ["SSPR"] response) and a
    protocol version byte, then a {!Ssp_store.Store.Bin}-encoded body.
    Decoders raise structured {!Ssp_ir.Error.Error}s (pass ["proto"]) on
    anything malformed — a bad frame becomes an error reply, never a dead
    connection or a crash. *)

val proto_version : int
(** The one version this build writes and accepts (6). Every peer ships
    from this repository; a payload of any other version is a structured
    [proto] error. *)

val default_max_frame : int
(** Frames larger than this are rejected (8 MiB). *)

val default_tenant : string
(** Tenant name used when a client does not declare one (["anon"]). *)

type program_ref = Ssp_workloads.Suite.program =
  | Workload of string  (** a named suite workload, compiled server-side *)
  | Source of string  (** mini-C source text shipped in the request *)
(** {!Ssp_workloads.Suite.program}, re-exported with its constructors;
    it travels through {!Ssp_store.Store.w_program}, whose tags are 0
    ([Workload]) and 1 ([Source]). *)

type trace_ctx = { trace_id : string; span_id : int }
(** Distributed-trace context minted by the client and propagated in the
    request envelope; [span_id] is the sender's span, i.e. the
    receiver's parent span. An empty [trace_id] never appears here — it
    encodes "untraced" on the wire. *)

type hop = { hop_node : string; hop_stage : string; hop_ms : float }
(** One entry of the per-hop latency breakdown stamped into a
    response envelope ([hop_node] e.g. ["shard 127.0.0.1:7301"],
    [hop_stage] e.g. ["queue"], ["store.lookup"], ["serialize"]). *)

type req_env = {
  re_trace : trace_ctx option;
  re_deadline_ms : float;
      (** the end-to-end budget *remaining* at send time: [0.] means no
          deadline, negative means already expired (stamped rather than
          suppressed so the receiver accounts the shed). Each hop
          re-stamps the remainder before forwarding. *)
  re_artifacts : int;
      (** replication ask: {!artifacts_none}, {!artifacts_on_miss}
          (attach freshly-computed artifacts for write-through) or
          {!artifacts_always} (attach even on a hit, for read-repair) *)
}
(** The request envelope. *)

val artifacts_none : int
val artifacts_on_miss : int
val artifacts_always : int

type request =
  | Adapt of {
      prog : program_ref;
      scale : int;
      pipeline : string;
      tenant : string;
    }
      (** run the post-pass; reply carries the report and the adapted
          binary as assembly text *)
  | Sim of {
      prog : program_ref;
      scale : int;
      pipeline : string;
      ssp : bool;
      tenant : string;
    }
      (** cycle simulation, optionally adapting first *)
  | Stats
      (** a telemetry snapshot ({!Snapshot}): a daemon answers with its
          own, the router with the merge of every live shard's and its
          own *)
  | Shutdown  (** acknowledge, then stop serving *)
  | Put_blob of { key : string; blob : string }
      (** replica write: store a sealed artifact blob under [key]. The
          receiver verifies the envelope ({!Ssp_store.Store.blob_ok})
          and the key's shape before touching its cache; answered
          inline (no admission) with [Ok_reply] or a structured
          error. *)
  | Ping
      (** cheap liveness probe ([Ok_reply]), used by the router's
          circuit breaker to half-open a quarantined shard without
          risking real traffic *)
  | Feedback of {
      prog : program_ref;
      scale : int;
      pipeline : string;
      tenant : string;
      blob : string;
    }
      (** upload a sealed attribution report
          ([Ssp_feedback.encode_report]) from a client's simulated run.
          The workload identity rides beside the blob so the router can
          forward the report to the key's primary shard with the same
          affinity hash Adapt/Sim use. The server verifies the blob's
          envelope and kind (a wrong-kind blob is a structured error)
          and persists it; a [--tune] daemon then runs the workload's
          tuning round. *)

val tenant_of : request -> string
(** The declaring tenant of a work request; ["-"] for control requests
    (which bypass admission control). *)

type error_info = { pass : string; what : string; injected : bool }

type response =
  | Adapted of { report : string; asm : string; cache : string }
      (** [cache] is ["hit"], ["miss"] or ["off"] *)
  | Simmed of { stats : string }
  | Stats_reply of { snapshot : Snapshot.t }
      (** travels as {!Snapshot.encode}'s bytes, so decoding the reply
          checks the snapshot's own magic and version *)
  | Ok_reply
  | Busy_reply of { retry_after_s : float }
      (** admission control: the shard's queue is saturated; retry after
          (roughly) this many seconds — clients add jitter *)
  | Deadline_exceeded of {
      stage : string;
          (** where the budget ran out: ["client"], ["router"],
              ["admission"], ["compute"] or ["serialize"] *)
      budget_ms : float;  (** the budget as stamped on arrival *)
      elapsed_ms : float;  (** time burned at that node before the shed *)
    }
      (** structured deadline shed: the request's end-to-end budget
          expired before (or while) serving it. Never retried — the
          client's time is gone either way. *)
  | Error_reply of error_info

val encode_request :
  ?trace:trace_ctx -> ?deadline_ms:float -> ?artifacts:int -> request -> string
(** [deadline_ms] (default 0 = none) and [artifacts] (default
    {!artifacts_none}) populate the envelope; see {!req_env}. *)

val decode_request : string -> request

val decode_request_env : string -> request * req_env
(** Like {!decode_request} but returns the whole envelope. *)

val encode_response : ?hops:hop list -> ?artifacts:(string * string) list ->
  response -> string
(** [artifacts] is the replicated-artifact list a shard attaches when
    the request's {!req_env.re_artifacts} asked for it: the cache
    [(key, sealed blob)] pairs the reply was built from, which the
    router writes through to the replica. *)

val decode_response : string -> response

val decode_response_env :
  string -> response * hop list * (string * string) list
(** Like {!decode_response} but also returns the per-hop latency
    breakdown ([[]] for untraced replies) and the attached artifact
    list. *)

val frame : string -> string
(** Prefix a payload with its 4-byte big-endian length. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write [frame payload] fully (blocking). A write a signal interrupts
    (EINTR) is made again. *)

val read_frame : Unix.file_descr -> string option
(** Read one complete frame (blocking); a read a signal interrupts
    (EINTR) is made again. [None] on clean EOF before any byte; raises
    [Ssp_ir.Error.Error] (pass ["proto"]) on a truncated frame or one
    larger than {!default_max_frame}. *)
