(** Precomputation slices (p-slices).

    A slice is the set of instructions of one region that compute the
    addresses of one or more delinquent loads, together with its live-in
    cut: values the slice consumes but does not compute. A live-in arises
    from a definition outside the region, a function parameter, or a
    non-sliceable producer (a call result, an allocation, a random number —
    instructions a speculative thread must not re-execute). The paper's
    rule that p-slices contain no stores is enforced structurally: stores
    are never sliceable. *)

type live_in = {
  orig_reg : Ssp_isa.Reg.t;  (** register in the host function's frame *)
  def_sites : Ssp_ir.Iref.t list;
      (** the producing instructions (empty for parameters/invariants
          defined before the region) *)
  recurrence : bool;
      (** carried from iteration to iteration by the slice itself *)
}

type target = {
  load : Ssp_ir.Iref.t;
  addr_reg : Ssp_isa.Reg.t;
  offset : int;
  value_used : bool;
      (** the loaded value itself feeds the slice (pointer-chase
          recurrence): keep the load, no separate prefetch needed *)
}

type t = {
  fn : string;
  region : Ssp_analysis.Regions.region;
  targets : target list;
  instrs : Ssp_ir.Iref.Set.t;
  live_ins : live_in list;
  interprocedural : bool;
      (** live-ins are bound at call sites of [fn] rather than inside it *)
}

val size : t -> int
val merge : t -> t -> t
(** Union of two slices over the same region. *)

val pp : Ssp_ir.Prog.t -> Format.formatter -> t -> unit
