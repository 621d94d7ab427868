(** The `sspc explain` report: per delinquent load, the join of

    - the profile (miss cycles, miss share among all profiled misses),
    - the tool's decision (slice size, region, basic vs. chaining,
      [slack_csp]/[slack_bsp] at the first iteration, spawn condition,
      trigger placement),
    - the simulator's prefetch-lifecycle attribution (useful / late /
      early-evicted / redundant / dropped counts and the derived
      coverage / accuracy / timeliness),

    plus speculative-thread lifetime statistics and per-spawn-site
    accept/deny counts. *)

type scheme = {
  model : string;  (** "chaining" or "basic" *)
  slice_size : int;
  live_ins : int;
  region : string;
  interprocedural : bool;
  spawn_condition : string;  (** "computed" or "predicted" *)
  slack1_csp : int;
  slack1_bsp : int;
  trips : int;
  triggers : Trigger.t list;
}

type row = {
  load : Delinquent.load;
  miss_share : float;  (** of all profiled miss cycles *)
  scheme : scheme option;  (** [None]: no slice covers this load *)
  attrib : Ssp_sim.Attrib.load_summary option;
  feedback : string option;
      (** pre-rendered fleet cell ([sspc explain --feedback]): the
          fold's coverage/accuracy/timeliness and the published knob for
          this load, supplied by the caller so this module stays
          independent of the feedback plane *)
}

type t = {
  rows : row list;
  threads : Ssp_sim.Attrib.thread_summary;
  sites : Ssp_sim.Attrib.site_summary list;
  profile_coverage : float;
  cycles : int;  (** simulated cycles of the attributed run *)
  diagnostics : Report.diag list;
      (** the adaptation run's degradation-ladder decisions (per-load
          rung downgrades and skips), verbatim from
          [result.report.diagnostics] — rendered as a table section by
          {!pp} and a ["diagnostics"] array by {!to_json} *)
}

val build :
  ?feedback:(Ssp_ir.Iref.t -> string option) ->
  result:Adapt.result ->
  stats:Ssp_sim.Stats.t ->
  attrib:Ssp_sim.Attrib.summary ->
  unit ->
  t
(** [feedback] looks up the fleet cell for a delinquent load (default:
    none). *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
