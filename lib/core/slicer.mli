(** Backward program slicing for speculative precomputation (§3.1).

    [slice_region] computes the slice of a delinquent load's address within
    one region (the region-based slicing of §3.1.1: the driver grows the
    region outward until the slack suffices). The traversal follows true
    register data dependences backward; it stops and records a live-in at:
    - definitions outside the region (loop invariants, values computed
      before the region);
    - function parameters;
    - non-sliceable producers — calls, allocations, random numbers:
      instructions a speculative thread must not re-execute. A live-in cut
      at a producer {e inside} a loop region forces per-iteration (basic)
      triggering, which the selector honours.

    Speculative slicing (§3.1.2) prunes definitions in never-executed
    blocks (block profiling) and ignores intra-region control dependences —
    guarded address computations are hoisted speculatively, which is safe
    because p-slices contain no stores and cannot fault. The loop's own
    continuation condition is handled by the scheduler (spawn condition or
    condition prediction), not here.

    Loop-carried classification: a live-in whose defining instructions are
    slice members reached around the loop's back edge is a {e recurrence}
    (the value the chaining thread passes to its successor). *)

val slice_region :
  Ssp_analysis.Regions.t ->
  Ssp_profiling.Profile.t ->
  region:Ssp_analysis.Regions.region ->
  Delinquent.load ->
  Slice.t option
(** [None] when the load's address is a constant, the slice exceeds 48
    instructions, or the load lies outside the region. *)

val bind_at_callers :
  Ssp_analysis.Regions.t ->
  Ssp_analysis.Callgraph.t ->
  Ssp_profiling.Profile.t ->
  Slice.t ->
  (Slice.t * Ssp_ir.Iref.t list) option
(** Context-sensitive upward binding (§3.1's [contextmap]): when every
    live-in of a whole-procedure slice is a formal parameter, the live-ins
    can be bound to the actuals at the call sites of the host function and
    the triggers placed there — an interprocedural slice. Returns the
    re-marked slice and the call sites (including recursive ones). *)
