(** Static per-program layout tables shared by the cycle simulators and the
    functional interpreter.

    One [entry] per function carries:
    - the absolute program-counter id of every block's first instruction
      (a pc id is a dense global instruction number used as the branch
      predictor index, the profile counters' index and, scaled by 16, the
      instruction-fetch address);
    - the static bundle index of every instruction (issue-bandwidth
      accounting in bundle units);
    - the function's predecoded instruction stream.

    Per pc id, [t] holds the static facts the cycle cores need on every
    issue: source and destination registers ({!Ssp_isa.Op.uses},
    {!Ssp_isa.Op.defs}), base latency ({!Ssp_machine.Latency.of_op}), and
    whether the instruction accesses memory or is a conditional branch.

    The numbering replicates the historical pcmap exactly (functions in
    [funcs_in_order] order, blocks sequential), so predictor/BTB indices are
    independent of the lookup structure. [irefs] inverts the numbering —
    the hot loops fetch a preallocated {!Ssp_ir.Iref.t} by pc instead of
    allocating one per instruction. *)

type entry = {
  func : Ssp_ir.Prog.func;
  block_base : int array;  (** absolute pc id of each block's first instr *)
  bundle_idx : int array array;  (** per block: bundle index per instr *)
  blk0_iaddr : int array;  (** fetch address of each block's first instr *)
  dec : Decode.t;  (** predecoded flat instruction stream *)
}

type t = {
  tbl : (string, int) Hashtbl.t;  (** function name → [by_index] index *)
  by_index : entry array;
      (** entries in [funcs_in_order] order; a function's index here is its
          identity in the simulator ([Thread.fn], decoded call words) *)
  n_pcs : int;  (** total static instruction count *)
  irefs : Ssp_ir.Iref.t array;  (** pc id → instruction reference *)
  use_at : int array;
      (** pc [k] reads registers [use_reg.(use_at.(k))] up to, excluding,
          [use_reg.(use_at.(k + 1))] (length [n_pcs + 1]) *)
  use_reg : int array;
  def_at : int array;  (** the same for the registers pc [k] writes *)
  def_reg : int array;
  latency : int array;  (** pc id → {!Ssp_machine.Latency.of_op} *)
  mem_op : bool array;  (** pc id → load, store or lfetch *)
  cond_br : bool array;  (** pc id → [brnz] or [brz] *)
}

val code_base : int
(** Base pseudo-address of the code segment (16 bytes per instruction,
    distinct from data addresses). *)

val of_prog : Ssp_ir.Prog.t -> t

val find : t -> string -> int
(** The named function's index in [by_index]. Raises [Invalid_argument]
    for a name the program does not define. *)

val name : t -> int -> string
(** The name of the function at an index of [by_index]. *)

val iref_of : t -> int -> Ssp_ir.Iref.t
