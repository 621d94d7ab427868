(** SSP-enabled code generation (§3.4.2, Figure 7).

    For every selected slice the program is rewritten in place:
    - the p-slice is appended to its host function as {e slice blocks}: the
      speculative thread copies its live-ins out of the live-in buffer,
      runs the scheduled critical sub-slice, conditionally spawns the next
      chaining thread (copying the updated live-ins into the buffer first),
      runs the non-critical sub-slice, issues the prefetches and kills
      itself;
    - each trigger site gets a {e stub block} appended to the triggering
      function: the main thread reaches it as the recovery code of the new
      [chk.c] instruction, copies the live-in values into the buffer,
      spawns the speculative thread and resumes;
    - the [chk.c] is inserted by splitting the trigger's block: the
      instructions after the trigger point move to a {e resume block}, so
      all original instruction positions before the split stay valid (the
      paper replaces an existing nop; our generator has no nops to spare).

    Slice registers are freshly renamed (speculative contexts start from a
    clean register file), which also disposes of all anti and output
    dependences, and slice code never contains stores, allocations or
    calls — validated structurally after rewriting. *)

type apply_result = {
  prefetch_map : Ssp_ir.Iref.t Ssp_ir.Iref.Map.t;
      (** every emitted instruction that acts as a prefetch — each
          [lfetch], and each slice copy of a value-used target load (no
          lfetch is emitted for those; the load itself is the prefetch) —
          mapped to the original delinquent load it precomputes *)
  dropped : (Ssp_ir.Iref.t * Ssp_ir.Error.info) list;
      (** per-choice failures survived: the delinquent load whose choice
          (or trigger) was dropped, and why.  A dropped slice or trigger
          only costs prefetches — the rewritten program stays valid. *)
}

val apply :
  Ssp_ir.Prog.t -> Ssp_machine.Config.t -> Select.choice list -> apply_result
(** Mutates the program.  Per-choice emission failures (including
    injected [adapt.codegen.refuse] faults) are isolated — the choice is
    dropped and reported in [dropped].  Raises [Ssp_ir.Error.Error] only
    if the fully rewritten program fails validation. *)

(** {2 Raw rewriting (hand adaptation)}

    The §4.5 hand-adapted binaries are built with the same low-level
    rewriting used by the automatic tool. The labels it mints continue past
    the largest [ssp_*_<n>] already in the program, so they are unique
    within it and depend only on it. *)

val insert_chk :
  Ssp_ir.Prog.t ->
  fn:string ->
  blk:int ->
  pos:int ->
  stub_ops:Ssp_isa.Op.t list ->
  unit
(** Split the block at [pos], insert a [chk.c], append the stub (the final
    resume branch is added automatically). *)

val append_raw_block :
  Ssp_ir.Prog.t -> fn:string -> stem:string -> Ssp_isa.Op.t list -> string
(** Append one block to [fn] and return its label, [ssp_<stem>_<n>]. *)
