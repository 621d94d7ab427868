(** Prefetch-lifecycle attribution.

    Attached to a simulation (via [Smt.create ~attrib] / the [?attrib]
    argument of [Inorder.run] and [Ooo.run]), an [Attrib.t] tags every
    prefetch issued by a speculative thread with the delinquent load it
    precomputes and classifies it exactly once against the main thread's
    demand stream:

    - {e useful}: demand hit on a line the prefetch filled;
    - {e late}: demand found the prefetch still in flight (partial hit);
    - {e early_evicted}: the line was evicted before any use;
    - {e redundant}: the line was already present/in flight at issue;
    - {e dropped}: the fill buffer refused the prefetch;
    - {e unused}: never demanded before the simulation ended.

    Recording is passive — attaching an [Attrib.t] changes neither cycle
    counts nor outputs (tested). *)

type cls = Useful | Late | Early_evicted | Redundant | Dropped

type tag = {
  target : Ssp_ir.Iref.t;  (** the delinquent load being precomputed *)
  site : Ssp_ir.Iref.t;  (** slice instruction that issued the prefetch *)
  ctx : int;  (** hardware context of the issuing thread *)
}

type t

val create :
  ?prefetch_map:Ssp_ir.Iref.t Ssp_ir.Iref.Map.t ->
  ?targets:Ssp_ir.Iref.Set.t ->
  unit ->
  t
(** [prefetch_map] maps emitted prefetch sites (lfetch instructions and
    value-used slice loads) to the original delinquent load, as returned
    by [Codegen.apply] / carried in [Adapt.result]. [targets] adds loads
    to track demand hit/miss accounting for; mapped targets are always
    tracked. *)

val target_of : t -> Ssp_ir.Iref.t -> Ssp_ir.Iref.t option
(** The delinquent load a prefetch site precomputes, if mapped. *)

(** {2 Hooks} — called by the simulator; not for external use. *)

val prefetch_issued : t -> tag -> line:int -> now:int -> unit
val prefetch_redundant : t -> tag -> unit
val prefetch_dropped : t -> tag -> unit
val fill_retired : t -> line:int -> now:int -> unit

val demand_use :
  t ->
  ?iref:Ssp_ir.Iref.t ->
  main:bool ->
  line:int ->
  hit:bool ->
  partial:bool ->
  now:int ->
  ready:int ->
  unit ->
  unit

val spawned : t -> src:Ssp_ir.Iref.t -> unit
val spawn_denied : t -> src:Ssp_ir.Iref.t -> unit
val thread_end : t -> spawned_at:int -> now:int -> watchdog:bool -> unit

val finalize : t -> unit
(** Classify all still-outstanding prefetches as unused. Call once when
    the simulation ends, before [summary]. *)

(** {2 Summaries} *)

type load_summary = {
  ls_load : Ssp_ir.Iref.t;
  ls_issued : int;
  ls_useful : int;
  ls_late : int;
  ls_early_evicted : int;
  ls_redundant : int;
  ls_dropped : int;
  ls_unused : int;
  ls_demand_accesses : int;
  ls_demand_hits : int;
  ls_coverage : float;
      (** (useful + late) / would-be misses of the target load *)
  ls_accuracy : float;  (** useful / everything issued (incl. dropped) *)
  ls_timeliness : float;  (** useful / (useful + late) *)
  ls_mean_lead : float;  (** cycles a useful line waited before its use *)
  ls_mean_late_wait : float;  (** residual cycles late prefetches cost *)
  ls_lead_hist : Ssp_telemetry.Telemetry.hist_summary;
      (** lead-time distribution of useful fills, in the telemetry
          histograms' fixed bucket layout (merges exactly across runs) *)
}

type site_summary = {
  ss_site : Ssp_ir.Iref.t;
  ss_spawns : int;
  ss_denied : int;
}

type thread_summary = {
  th_spawns : int;
  th_denied : int;
  th_ended : int;
  th_watchdog_kills : int;
  th_mean_lifetime : float;
  th_max_lifetime : int;
}

type summary = {
  loads : load_summary list;
  sites : site_summary list;
  threads : thread_summary;
}

val summary : t -> summary
val find_load : summary -> Ssp_ir.Iref.t -> load_summary option

(** {2 Ratios} — the one definition of each, over plain or decayed
    counts; {!load_summary} and the feedback plane's fleet cells both
    use them. A zero denominator gives 0. *)

val ratio : float -> float -> float

val coverage :
  useful:float -> late:float -> accesses:float -> hits:float -> float
(** (useful + late) / (accesses - hits + useful): the would-be misses are
    the observed misses (which include the late uses) plus the useful
    prefetches that turned a miss into a hit. *)

val accuracy : useful:float -> attempts:float -> float
(** useful / attempts, attempts being issued + redundant + dropped. *)

val timeliness : useful:float -> late:float -> float
(** useful / (useful + late). *)
