(** The post-pass tool: the whole Figure 1 second pass.

    [run] takes the original binary and its profile and produces the
    SSP-enhanced binary: delinquent loads are identified, a region and a
    precomputation model are selected for each (slicing, scheduling, slack
    estimation), slices sharing dependence-graph nodes are combined, and
    the rewritten binary has the trigger [chk.c]s inserted and the stub /
    slice blocks attached. The input program is not modified. *)

type result = {
  prog : Ssp_ir.Prog.t;  (** the adapted binary *)
  report : Report.t;
  delinquent : Delinquent.t;
  choices : Select.choice list;
  prefetch_map : Ssp_ir.Iref.t Ssp_ir.Iref.Map.t;
      (** emitted prefetch sites (lfetches, value-used target-load
          copies) mapped to the delinquent loads they precompute; feed to
          [Ssp_sim.Attrib.create] for prefetch-lifecycle attribution *)
}

type load_knob = {
  lk_skip : bool;  (** drop this load's precomputation entirely *)
  lk_model : [ `Keep | `Basic | `Chaining ];
      (** flip the SP model; promotion to chaining is clamped by the
          load's degradation-ladder ceiling ([Select.allow_chaining]) *)
  lk_unroll : int;  (** per-thread lookahead; 0 keeps the global value *)
}
(** A per-load adjustment, as computed by the feedback tuner
    ([Ssp_feedback]). Skips are applied before slice combining; model
    and unroll adjustments after, to the choice whose primary load
    matches. *)

val keep_knob : load_knob
(** The identity override (no skip, keep model, keep unroll). *)

type overrides = load_knob Ssp_ir.Iref.Map.t

val no_overrides : overrides

val overrides_string : overrides -> string
(** Canonical injective rendering (loads in key order, identity knobs
    dropped) — a cache-key component, like {!knobs_string}. *)

type knobs = {
  coverage : float;  (** delinquent-load miss-cycle coverage *)
  combining : bool;  (** [false] keeps one slice per delinquent load *)
  force_basic : bool;  (** disable chaining SP *)
  force_predict : bool;
      (** replace computed spawn conditions with the chain-depth bound *)
  unroll : int;  (** per-thread iteration lookahead *)
}
(** The ablation knobs of {!run}. Every field is part of the
    content-addressed cache key ({!knobs_string}). *)

val default_knobs : knobs
(** The paper's tool: coverage 0.9, combining on, neither forcing, unroll
    1. *)

val knobs_string : knobs -> string
(** Canonical injective rendering — any knob change changes the string.
    Used as a cache-key component by [Ssp_store]. *)

val run :
  ?knobs:knobs ->
  ?overrides:overrides ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  Ssp_profiling.Profile.t ->
  result
(** [knobs] defaults to {!default_knobs}; the ablation study
    ([Ssp_harness.Ablation]) is the caller that varies them. [overrides]
    are the feedback tuner's per-load adjustments ({!load_knob}).

    Per-load failures ([Ssp_ir.Error.Error], from real refusals or the
    fault-injection engine) never abort the run: each load walks a
    degradation ladder (interprocedural → intraprocedural → basic → skip)
    and every degradation or skip is recorded in
    [result.report.diagnostics].  Ladder decisions are keyed by the
    load's identity, not by the order loads are visited in. *)

val apply_choices :
  ?diags:Report.diag list ->
  Ssp_ir.Prog.t ->
  config:Ssp_machine.Config.t ->
  Select.choice list ->
  Delinquent.t ->
  result
(** Code generation only, for pre-built (e.g. hand-written) choices.
    [diags] (selection-stage diagnostics) are prepended to the
    codegen-stage ones in the report. *)
