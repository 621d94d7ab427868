(** Closed-loop feedback plane: attribution upload, aggregation, tuning.

    Clients that simulate an adapted binary with prefetch-lifecycle
    attribution ({!Ssp_sim.Attrib}) serialize the per-delinquent-load
    outcome counts and lead-time histograms into a versioned {!report}
    artifact and upload it (proto [Feedback] request). The serving
    side persists every report in the content-addressed store. A tuning
    round folds a workload's persisted reports onto its published state
    ({!fold_workload}) and — once the fold crosses confidence thresholds
    — re-runs the post-pass with adjusted per-load knobs
    ({!Ssp.Adapt.overrides}) and publishes the result under a bumped
    tuning version. Published versions are immutable: each one keys its
    own store entry, so a version-N artifact fetched yesterday is
    byte-identical today.

    There is one aggregation: {!fold_reports}, which ingests reports in
    canonical (encoded-bytes) order. The store keeps only the published
    state (version, overrides, last action), never per-load sums, so the
    tuner, [sspc explain --feedback] and the daemon all read the same
    fold, and an offline [sspc tune] over a copied store publishes
    byte-identical artifacts to the daemon's own round.

    The knob policy is a finite monotone lattice — per load,
    [Keep < Chaining < Basic < skip] and unroll only grows (capped) — so
    repeated tuning always reaches a fixed point and never oscillates.

    Because this library owns the published versions, it also owns the
    request pipeline every front end shares, and it is the one library
    that runs it against a store ({!Ssp_store.Store} only keeps bytes):
    {!adapt} profiles, looks up the published tuning and adapts, through
    the store when there is one, and a tuning round re-adapts the same
    way. Each resolves its program once ({!resolve}). *)

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

(** {1 The aggregation} *)

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
  ag_reports : int;  (** folded reports at [ag_version] *)
  ag_stale : int;  (** folded reports at any other version *)
  ag_loads : agg_load Ssp_ir.Iref.Map.t;
      (** per-load sums of the reports at [ag_version] *)
}
(** A published state and the reports folded onto it. The first three
    fields are what the store keeps; the last three are the fold, which
    is recomputed from the persisted reports whenever it is read. *)

val empty_aggregate : aggregate
(** Version 0, no overrides, nothing folded. *)

val default_decay : float
(** Per-report multiplicative decay applied to scalar accumulators. *)

val ingest : aggregate -> report -> aggregate
(** Fold one report in. A report whose [fr_version] differs from
    [ag_version] only bumps [ag_stale]; one at [ag_version] decays every
    load's sums, then adds its counts. *)

val fold_reports : aggregate -> report list -> aggregate
(** The one aggregation: {!ingest} each report in canonical order (by
    encoded bytes), whatever order the list has. Decay therefore follows
    that order, not arrival or recency. *)

val encode_aggregate : aggregate -> string
(** Sealed store blob ({!Ssp_store.Store.kind_feedback_aggregate}) of
    the published state: version, overrides and last action. The fold
    fields are not stored. *)

val decode_aggregate : string -> aggregate
(** The published state, with nothing folded. *)

val aggregate_key :
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  Ssp_profiling.Profile.t ->
  string
(** Store key of the per-(program, profile, config) published state; its
    knobs component is always {!Ssp.Adapt.default_knobs}. *)

(** {1 The request pipeline} *)

type resolved
(** A program resolved against a store, each step once: its hash, the
    config's fingerprint, its profile (read, or collected and stored),
    the profile's hash, and the keys those name. *)

val resolve :
  Ssp_store.Store.Cache.t ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  resolved

val published : Ssp_store.Store.Cache.t -> resolved -> aggregate
(** The published state stored for the program, with nothing folded;
    {!empty_aggregate} when there is none. *)

val status_string : [ `Hit | `Miss | `Off ] -> string
(** ["hit"], ["miss"] or ["off"]: how [sspc] and the daemon report a
    served adaptation's [sv_status]. *)

type served = {
  sv_text : string;
      (** the adapted program's assembly text ({!Ssp_ir.Asm.to_string}'s
          bytes): on a hit the stored bytes, on a miss the one print
          that also went into the blob *)
  sv_report : Ssp.Report.t;
  sv_result : Ssp.Adapt.result Lazy.t;
      (** the parsed result, built when forced: on a hit forcing it
          parses [sv_text] and re-identifies the delinquent loads (the
          choices are empty); otherwise it is the result computed *)
  sv_profile : Ssp_profiling.Profile.t;
  sv_status : [ `Hit | `Miss | `Off ];
      (** the adapt lookup's status; [`Off] without a store *)
  sv_keys : string list;
      (** the store keys of the profile and the result served, [] without
          a store: what the daemon reads back to replicate. They are
          {!Ssp_store.Store.profile_key} and
          {!Ssp_store.Store.adapted_key} of the program. *)
}
(** An adaptation as the pipeline serves it. *)

val adapt :
  ?cache:Ssp_store.Store.Cache.t ->
  ?jobs:int ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  served
(** Profile, then adapt at the store's published version: the one
    function behind [sspc adapt], [sim], [explain] and [stats] and the
    daemon's [Adapt] and [Sim] requests. With a [cache] it {!resolve}s
    the program, reads the published state, and looks the adapted entry
    up under the key the hashes and the version name; an aggregate at
    version N > 0 selects the immutable version-N artifact. A hit serves
    the stored text and report, checked by the envelope's MD5 only; a
    miss runs {!Ssp.Adapt.run} and stores its result with
    {!Ssp_store.Store.put_adapted}. Without a [cache] it is exactly
    [Collect.collect ~config] then [Adapt.run ~config]. A caller that
    only sends the adapted program on (the daemon's [Adapt] reply,
    [sspc adapt]) prints [sv_text] and never forces [sv_result];
    [sim], [explain], [stats] and the daemon's [Sim] force it. *)

(** {2 Derived per-load ratios} (guarded against empty accumulators) *)

val attempts : agg_load -> float
(** issued + redundant + dropped — every prefetch the slices tried. *)

val redundant_frac : agg_load -> float
(** redundant / attempts, where attempts = issued + redundant + dropped
    (attribution counts the three disjointly — a prefetch squashed
    because its line was already present is redundant, never issued). *)

val accuracy : agg_load -> float
(** {!Ssp_sim.Attrib.accuracy} over the sums. *)

val coverage_frac : agg_load -> float
(** {!Ssp_sim.Attrib.coverage} over the sums. *)

val timeliness : agg_load -> float
(** {!Ssp_sim.Attrib.timeliness} over the sums. *)

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
  aggregate ->
  Ssp.Adapt.overrides * action list
(** Decide the next override map from a fold. No decision is made below
    [min_reports] reports at the published version, and no per-load
    decision below [min_samples] (decayed) attempted prefetches. An
    empty action list means the returned overrides equal the
    aggregate's — a fixed point; callers must not bump the version.
    Moves are monotone in the knob lattice: mostly-redundant loads step
    toward [skip] (absorbing), chronically-late ones promote
    basic→chaining (still clamped by the load's degradation-ladder
    ceiling inside [Adapt]) and then widen lookahead, never past the
    cap. *)

val publish :
  aggregate -> overrides:Ssp.Adapt.overrides -> actions:action list -> aggregate
(** Bump the version, install the overrides and record the action
    summary, with nothing folded onto the new state. *)

type tuned = {
  td_aggregate : aggregate;  (** the newly published state *)
  td_actions : action list;
  td_result : Ssp.Adapt.result;  (** the newly published artifact *)
  td_status : [ `Hit | `Miss | `Off ];
}

val tune_reports :
  cache:Ssp_store.Store.Cache.t ->
  ?min_reports:int ->
  ?min_samples:float ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  report list ->
  tuned option
(** One deterministic tuning round on the given reports: {!resolve}s the
    program, folds the reports ({!fold_reports}) onto its stored
    published state, plans, and — if the plan is non-empty — publishes
    version N+1: re-runs the post-pass with the new overrides under the
    version-stamped key, as {!adapt} would serve it, and stores the new
    published state. [None] when the plan is empty (fixed point or below
    confidence). *)

(** {1 Per-workload rounds over a store} *)

val reports_in_store : Ssp_store.Store.Cache.t -> report list
(** Every persisted feedback report, in no particular order. Blobs of
    other kinds and undecodable blobs are skipped. The scan reads
    through {!Ssp_store.Store.Cache.find_kind}: a blob of another kind
    costs its 15-byte header, and no entry's LRU age changes. *)

type workload = Ssp_workloads.Suite.program * int * string
(** A workload's identity as its reports carry it: program, scale and
    pipeline name. *)

val fold_workload :
  Ssp_store.Store.Cache.t -> key:string -> workload -> aggregate
(** The fold of one workload's persisted reports onto the published
    state stored under [key] (its {!aggregate_key}): what a round
    decides on, and what [sspc explain --feedback] shows. *)

type store_tune = {
  st_prog : Ssp_workloads.Suite.program;
  st_scale : int;
  st_pipeline : string;
  st_reports : int;  (** persisted reports found for this workload *)
  st_aggregate : aggregate;
      (** the newly published state, or the fold when nothing was
          published *)
  st_tuned : tuned option;  (** [None] = no action for this workload *)
}

val tune_workload :
  ?min_reports:int ->
  ?min_samples:float ->
  Ssp_store.Store.Cache.t ->
  resolved ->
  workload ->
  store_tune
(** The per-workload round behind a [--tune] daemon's upload handler,
    on the workload's program already {!resolve}d under its pipeline's
    config: fold its persisted reports ({!fold_workload}) and tune on
    the fold as {!tune_reports} does. *)

val tune_store :
  ?min_reports:int ->
  ?min_samples:float ->
  Ssp_store.Store.Cache.t ->
  store_tune list
(** The round of {!tune_workload} on every workload with a persisted
    report, in canonical identity order, from one scan of the store:
    each workload is recompiled and {!resolve}d through the same store,
    and each round folds its own workload's reports. A workload naming
    an unknown program or pipeline raises the structured [feedback]
    error. This is [sspc tune]. *)

(** {1 The explain view} ([sspc explain --feedback]) *)

val explain_header : aggregate -> string
(** [feedback: vN  R reports (S stale)], then the last action if any;
    R and S are the fold's [ag_reports] and [ag_stale]. A
    fold with no published version and no report says there is no
    fleet aggregate. *)

val explain_cell : aggregate -> Ssp_ir.Iref.t -> string option
(** One load's fleet cell: coverage, accuracy and timeliness of its
    folded sums and their attempted prefetches, then its published
    override, if any. *)
