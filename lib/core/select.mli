(** Region and precomputation-model selection (§3.4.1).

    For each delinquent load the region graph is walked from the innermost
    region containing the load outward (bounded nesting, stopping at the
    procedure). For each candidate the slice is built and scheduled, the
    trip count is derived from block profiling, and the reduced miss
    cycles are estimated as

    [reduced = entries · Σ_{i=1..trips} min(miss_cycles_per_iteration,
    slack_model(i))].

    The first region whose estimate exceeds the cutoff fraction of the
    load's profiled miss cycles wins; failing that, the best one. Basic SP
    is chosen when the trip count is small, when basic slack dominates
    chaining slack, or when a live-in is produced inside the loop
    (per-iteration cut point — a chaining thread could not run ahead of
    it); chaining SP otherwise. Whole-procedure slices whose live-ins are
    all parameters are bound at their call sites (interprocedural slices,
    §3.1). *)

type model = Chaining | Basic

type choice = {
  schedule : Schedule.t;
  model : model;
  triggers : Trigger.t list;
  trips : int;
  reduced_misscycles : int;
  load : Delinquent.load;
  unroll : int;
      (** iterations one speculative thread precomputes; 1 for the
          automatic tool, > 1 for hand adaptation (§4.5) *)
  allow_interproc : bool;
  allow_chaining : bool;
      (** the degradation-ladder rung this choice was approved under
          ([choose]'s [interproc]/[chaining] arguments); {!refine} will
          not re-promote past it when slices are combined *)
}

val choose :
  ?interproc:bool ->
  ?chaining:bool ->
  Ssp_analysis.Regions.t ->
  Ssp_analysis.Callgraph.t ->
  Ssp_profiling.Profile.t ->
  Ssp_machine.Config.t ->
  Delinquent.load ->
  choice option
(** [interproc:false] disables interprocedural (call-site) binding,
    [chaining:false] forces the basic model — the lower rungs of the
    per-load degradation ladder ([Adapt.run] retries a load with these
    after a structured failure).  May raise [Ssp_ir.Error.Error] (real
    refusals and injected faults alike); [Adapt.run] isolates these per
    load. *)

val trips_of :
  Ssp_analysis.Regions.t -> Ssp_profiling.Profile.t ->
  Ssp_analysis.Regions.region -> string -> int * int
(** [(entries, trips per entry)] of a loop region from block profiles;
    [(invocations, 1)] for procedure regions. *)

val refine :
  Ssp_analysis.Regions.t ->
  Ssp_analysis.Callgraph.t ->
  Ssp_profiling.Profile.t ->
  Ssp_machine.Config.t ->
  choice ->
  choice
(** Re-decide model and triggers for a (merged) choice: the combined slice
    may shift the basic/chaining trade-off — but never past the choice's
    [allow_interproc]/[allow_chaining] ceiling. *)
