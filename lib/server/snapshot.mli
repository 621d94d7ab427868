(** Versioned binary telemetry snapshot — the payload of
    {!Proto.Snapshot_reply}.

    A shard captures its live telemetry (counters, gauges, histogram
    summaries, dropped-event count) into a [t]; the router
    fans a {!Proto.request.Stats_snapshot} out to every live shard and
    {!merge}s the replies: histograms merge bucket-wise (the fixed
    layout in {!Ssp_telemetry.Telemetry} makes the merge exact),
    counters add, and backpressure/integrity counters (evictions,
    corrupt entries, retry-after rejections) additionally stay
    attributed per shard under [shard.<node>.<name>]. *)

module T = Ssp_telemetry.Telemetry

type t = {
  node : string;  (** who captured this (["host:port"], ["router"], …) *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
      (** point-in-time values (queue depth, cache bytes, shard
          liveness) — never summed on merge, always shard-prefixed *)
  hists : (string * T.hist_summary) list;
  events_dropped : int;
}

val capture : ?node:string -> ?gauges:(string * float) list -> unit -> t
(** Snapshot the process-wide telemetry state ({!T.report} plus
    caller-supplied gauges). Cheap enough to answer inline on the serve
    loop. *)

val encode : t -> string
(** Binary encoding (magic ["SSPS"], version 2, via
    {!Ssp_store.Store.Bin}). *)

val decode : string -> t
(** Raises [Ssp_ir.Error.Error] (pass ["snapshot"]) on malformed input,
    including any version other than 2 and a histogram whose bucket
    layout differs from this build's — merging across layouts would be
    silently wrong. *)

val merge : ?node:string -> t list -> t
(** Merge snapshots into one cluster view (default [node] is
    ["cluster"]). Counters add; [per-shard] counters (see above) are
    also kept under [shard.<node>.<name>]; gauges are kept per shard
    only; hists merge bucket-wise; [events_dropped] adds. *)

val pp : Format.formatter -> t -> unit
(** Stats table: counters, gauges, histogram quantiles. *)

val to_json : t -> string
