(** Closed-loop feedback plane: attribution upload, aggregation, tuning.

    Clients that simulate an adapted binary with prefetch-lifecycle
    attribution ({!Ssp_sim.Attrib}) serialize the per-delinquent-load
    outcome counts and lead-time histograms into a versioned {!report}
    artifact and upload it (proto [Feedback] request). The serving
    side persists every report in the content-addressed store, folds it
    into a per-workload decayed {!aggregate}, and — once the aggregate
    crosses confidence thresholds — re-runs the post-pass with adjusted
    per-load knobs ({!Ssp.Adapt.overrides}) and publishes the result
    under a bumped tuning version. Published versions are immutable:
    each one keys its own store entry, so a version-N artifact fetched
    yesterday is byte-identical today.

    Tuning is deterministic: the tuner's decision input is rebuilt from
    the persisted report set (sorted canonically), never from the live
    arrival-order aggregate, so an offline [sspc tune] over a copied
    store publishes byte-identical artifacts to the daemon's own round.

    The knob policy is a finite monotone lattice — per load,
    [Keep < Chaining < Basic < skip] and unroll only grows (capped) — so
    repeated tuning always reaches a fixed point and never oscillates.

    Because this library owns the aggregate and its published versions,
    it also owns the request pipeline every front end shares: {!adapt}
    profiles, looks up the published tuning and adapts, through the
    store when there is one. *)

type load_stat = {
  fl_load : Ssp_ir.Iref.t;
  fl_issued : int;
  fl_useful : int;
  fl_late : int;
  fl_early_evicted : int;
  fl_redundant : int;
  fl_dropped : int;
  fl_unused : int;
  fl_demand_accesses : int;
  fl_demand_hits : int;
  fl_lead_hist : Ssp_telemetry.Telemetry.hist_summary;
      (** lead-time distribution of useful fills, telemetry bucket
          layout — merges exactly across reports *)
}
(** One delinquent load's attribution counts from a single run; mirrors
    {!Ssp_sim.Attrib.load_summary}. *)

type report = {
  fr_prog : Ssp_workloads.Suite.program;
      (** suite workloads by name, anything else by its full source text,
          so an offline tuner can recompile the exact program measured *)
  fr_scale : int;
  fr_pipeline : string;  (** ["inorder"] or ["ooo"] *)
  fr_version : int;
      (** tuning version of the adapted artifact the run executed (0 =
          untuned); reports from other versions than the aggregate's
          current one are counted stale, never merged *)
  fr_cycles : int;  (** main-thread simulated cycles *)
  fr_loads : load_stat list;
}
(** The uploadable attribution artifact. *)

val report_of_attrib :
  prog:Ssp_workloads.Suite.program ->
  scale:int ->
  pipeline:string ->
  version:int ->
  cycles:int ->
  Ssp_sim.Attrib.summary ->
  report

val encode_report : report -> string
(** Sealed store blob ({!Ssp_store.Store.kind_feedback_report});
    canonical — identical runs produce byte-identical blobs, so the
    digest store key dedups them. *)

val decode_report : string -> report
(** Verifies envelope and kind; raises a structured [Ssp_ir.Error.Error]
    (pass ["feedback"]) on anything malformed. *)

val report_store_key : string -> string
(** Store key a sealed report blob is persisted under (digest of the
    blob itself — content-addressed, duplicate uploads coalesce). *)

(** {1 Aggregation} *)

type agg_load = {
  al_issued : float;
  al_useful : float;
  al_late : float;
  al_early_evicted : float;
  al_redundant : float;
  al_dropped : float;
  al_unused : float;
  al_demand_accesses : float;
  al_demand_hits : float;
  al_lead_hist : Ssp_telemetry.Telemetry.hist_summary;
}
(** Decayed accumulation of one load's counts across reports. Scalars
    decay multiplicatively per merged report (ratios are unaffected);
    the lead histogram merges exactly, bucket-wise. *)

type aggregate = {
  ag_version : int;  (** current published tuning version (0 = untuned) *)
  ag_overrides : Ssp.Adapt.overrides;
      (** the per-load knobs version [ag_version] was built with *)
  ag_last_action : string;  (** human summary of the last tuning round *)
  ag_reports : int;  (** reports merged at the current version *)
  ag_total_reports : int;  (** every report ever seen, any version *)
  ag_stale : int;  (** reports rejected for carrying another version *)
  ag_last_report_s : float;  (** wall clock of the last report seen *)
  ag_cycles : float;  (** decayed sum of merged reports' cycle counts *)
  ag_loads : agg_load Ssp_ir.Iref.Map.t;
}

val empty_aggregate : aggregate

val default_decay : float
(** Per-report multiplicative decay applied to scalar accumulators. *)

val ingest : ?now:float -> ?decay:float -> aggregate -> report -> aggregate
(** Fold one report in. A report whose [fr_version] differs from
    [ag_version] only bumps [ag_stale] / [ag_total_reports]. [now]
    defaults to the wall clock. *)

val fold_reports :
  ?now:float -> ?decay:float -> aggregate -> report list -> aggregate
(** {!ingest} each report in the given order. *)

val reset_loads : aggregate -> aggregate
(** Drop the per-load accumulation (and merged-report count) while
    keeping the published state — version, overrides, last action,
    lifetime counters. What {!publish} does to start the next epoch, and
    what the tuner does before rebuilding its decision input from the
    persisted report set. *)

val encode_aggregate : aggregate -> string
(** Sealed store blob ({!Ssp_store.Store.kind_feedback_aggregate}). *)

val decode_aggregate : string -> aggregate

val aggregate_key :
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  Ssp_profiling.Profile.t ->
  string
(** Store key of the per-(program, profile, config) aggregate; its knobs
    component is always {!Ssp.Adapt.default_knobs}. *)

val find_aggregate : Ssp_store.Store.Cache.t -> string -> aggregate option
(** The aggregate stored under a key: the one lookup the serving path,
    the daemon's ingest, the tuner and [sspc explain --feedback] share. *)

(** {1 The request pipeline} *)

type served = {
  sv_profile : Ssp_profiling.Profile.t;
  sv_result : Ssp.Adapt.result;
  sv_status : [ `Hit | `Miss | `Off ];
      (** the adapt lookup's status; [`Off] without a store *)
  sv_tuning : (int * Ssp.Adapt.overrides) option;
      (** the published version served, [None] for the untuned artifact *)
}

val adapt :
  ?cache:Ssp_store.Store.Cache.t ->
  ?jobs:int ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  served
(** Profile, then adapt at the store's published version: the one
    function behind [sspc adapt], [sim], [explain] and [stats] and the
    daemon's [Adapt] and [Sim] requests. With a [cache] the profile and
    the result go through {!Ssp_store.Store.cached_profile} and
    {!Ssp_store.Store.run_cached}, and an aggregate at version N > 0
    selects the immutable version-N artifact. Without one it is exactly
    [Collect.collect ~config] then [Adapt.run ~config]. *)

(** {2 Derived per-load ratios} (guarded against empty accumulators) *)

val attempts : agg_load -> float
(** issued + redundant + dropped — every prefetch the slices tried. *)

val redundant_frac : agg_load -> float
(** redundant / attempts, where attempts = issued + redundant + dropped
    (attribution counts the three disjointly — a prefetch squashed
    because its line was already present is redundant, never issued). *)

val late_frac : agg_load -> float
(** late / (useful + late) — the chronically-late signal. *)

val accuracy : agg_load -> float
(** useful / attempts. *)

val coverage_frac : agg_load -> float
(** (useful + late) / would-be misses. *)

val timeliness : agg_load -> float
(** useful / (useful + late). *)

(** {1 Tuning} *)

type action = {
  act_load : Ssp_ir.Iref.t;
  act_what : string;  (** e.g. ["skip"], ["model=chaining"], ["unroll=8"] *)
  act_why : string;  (** the triggering signal, with its measured value *)
}
(** One entry of a tuning round's structured diff ([sspc tune
    --explain]). *)

val action_to_string : action -> string

val default_min_reports : int
val default_min_samples : float

val plan :
  ?min_reports:int ->
  ?min_samples:float ->
  knobs:Ssp.Adapt.knobs ->
  aggregate ->
  Ssp.Adapt.overrides * action list
(** Decide the next override map from an aggregate. No decision is made
    below [min_reports] merged reports, and no per-load decision below
    [min_samples] (decayed) attempted prefetches. An empty action list
    means the returned overrides equal the aggregate's — a fixed point;
    callers must not bump the version. Moves are monotone in the knob
    lattice: mostly-redundant loads step toward [skip] (absorbing),
    chronically-late ones promote basic→chaining (still clamped by the
    load's degradation-ladder ceiling inside [Adapt]) and then widen
    lookahead, never past the cap. *)

val publish :
  ?now:float ->
  aggregate ->
  overrides:Ssp.Adapt.overrides ->
  actions:action list ->
  aggregate
(** Bump the version, install the overrides, record the action summary
    and start a fresh accumulation epoch ({!reset_loads}). *)

type tuned = {
  td_aggregate : aggregate;  (** post-publish *)
  td_actions : action list;
  td_result : Ssp.Adapt.result;  (** the newly published artifact *)
  td_status : [ `Hit | `Miss | `Off ];
}

val tune_reports :
  ?cache:Ssp_store.Store.Cache.t ->
  ?now:float ->
  ?min_reports:int ->
  ?min_samples:float ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  Ssp_profiling.Profile.t ->
  report list ->
  tuned option
(** One deterministic tuning round. Loads the live aggregate (for the
    published version/overrides), rebuilds the decision input from the
    given persisted reports (canonically sorted internally, so caller
    order is irrelevant), plans, and — if the plan is non-empty —
    publishes version N+1: re-runs the post-pass with the new overrides
    via {!Ssp_store.Store.run_cached} under the version-stamped key and
    persists the fresh aggregate. [None] when the plan is empty (fixed
    point or below confidence). *)

(** {1 Offline store walking} ([sspc tune STORE]) *)

val reports_in_store :
  Ssp_store.Store.Cache.t -> (string * report) list
(** Every persisted feedback report, as [(store key, report)], sorted by
    key. Blobs of other kinds and undecodable blobs are skipped. *)

type store_tune = {
  st_prog : Ssp_workloads.Suite.program;
  st_scale : int;
  st_pipeline : string;
  st_reports : int;  (** persisted reports found for this workload *)
  st_aggregate : aggregate;  (** post-round (published or unchanged) *)
  st_tuned : tuned option;  (** [None] = no action for this workload *)
}

val tune_store :
  ?now:float ->
  ?min_reports:int ->
  ?min_samples:float ->
  Ssp_store.Store.Cache.t ->
  store_tune list
(** Walk a store: group persisted reports by workload identity,
    recompile and re-profile each (through the same store), and run one
    {!tune_reports} round per workload. Workloads are processed in
    canonical identity order. A report naming an unknown workload or
    pipeline raises the structured [feedback] error. *)
