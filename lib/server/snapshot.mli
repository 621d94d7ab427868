(** Versioned binary telemetry snapshot — the payload of
    {!Proto.response.Stats_reply}.

    A snapshot is a run report ({!Ssp_telemetry.Telemetry.report}: phase
    spans, counters, histogram summaries) plus the node that captured
    it, its point-in-time gauges and its dropped-event count. A daemon
    answers a [Stats] request with its own snapshot; the router asks
    every shard and {!merge}s the replies with its own into one cluster
    view. Series stay out: a daemon's [server.queue_depth] series gains
    a point per batch for its whole uptime, and the reply must fit in
    one frame. *)

module T = Ssp_telemetry.Telemetry

type t = {
  node : string;  (** who captured this (["host:port"], ["router"], …) *)
  report : T.report;  (** [r_series] is always empty *)
  gauges : (string * float) list;
      (** point-in-time values (queue depth, cache bytes, shard
          liveness) — never summed on merge, always shard-prefixed;
          sorted by name *)
  events_dropped : int;
}

val capture : ?node:string -> ?gauges:(string * float) list -> unit -> t
(** Snapshot the process-wide telemetry state ([T.report ~series:false],
    plus caller-supplied gauges). Its cost does not grow with the
    series, so it is cheap enough to answer inline on the serve loop. *)

val encode : t -> string
(** Binary encoding (magic ["SSPS"], version 3, via
    {!Ssp_store.Store.Bin}). *)

val decode : string -> t
(** Raises [Ssp_ir.Error.Error] on malformed input: pass ["snapshot"]
    for a bad magic or any version other than 3, pass ["store"] for a
    malformed body, including a histogram whose bucket layout differs
    from this build's. *)

val merge : ?node:string -> t list -> t
(** Merge snapshots into one cluster view (default [node] is
    ["cluster"]) through {!T.merge}: counters add, histograms merge
    bucket-wise, spans merge by path. Backpressure and integrity
    counters ([store.evict], [store.corrupt], [server.rejected],
    [server.tenant.<t>.rejected]) are also kept per shard under
    [shard.<node>.<name>]; gauges are kept per shard only;
    [events_dropped] adds. *)

val pp : Format.formatter -> t -> unit
(** {!T.pp_summary}'s table between a [node:] line and the gauges and
    dropped-event lines. *)

val to_json : t -> string
(** {!T.to_json}'s object with [node], [gauges] and [events_dropped]
    added. *)
