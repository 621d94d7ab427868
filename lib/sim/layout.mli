(** Static per-program layout tables shared by the cycle simulators and the
    functional interpreter.

    A pc id is a dense global instruction number: a thread's position, the
    branch predictor index, the profile counters' index and, scaled by 16,
    the instruction-fetch address. The numbering replicates the historical
    pcmap exactly (functions in [funcs_in_order] order, blocks sequential,
    an empty block taking no id), so predictor/BTB indices are independent
    of the lookup structure. Fall-through is [pc + 1]: after a block's last
    instruction it lands on the next non-empty block of the function, and a
    branch to an empty block lands on its successor's first instruction.

    Per pc id, [t] holds what the engines read on every step and issue:
    the predecoded word ({!Decode}), the instruction's bundle and whether it
    starts a block, its source and destination registers
    ({!Ssp_isa.Op.uses}, {!Ssp_isa.Op.defs}), base latency
    ({!Ssp_machine.Latency.of_op}), and whether it accesses memory or is a
    conditional branch. [irefs] inverts the numbering — the hot loops fetch
    a preallocated {!Ssp_ir.Iref.t} by pc instead of allocating one per
    instruction.

    One [entry] per function keeps what the cold paths need: the function
    itself and the pc id of each block's first instruction. *)

type entry = {
  func : Ssp_ir.Prog.func;
  block_base : int array;  (** absolute pc id of each block's first instr *)
}

type t = {
  tbl : (string, int) Hashtbl.t;  (** function name → [by_index] index *)
  by_index : entry array;
      (** entries in [funcs_in_order] order; a function's index here is its
          identity in the simulator (spawn targets) *)
  n_pcs : int;  (** total static instruction count *)
  irefs : Ssp_ir.Iref.t array;  (** pc id → instruction reference *)
  code_ids : int array;
      (** [by_index] index → the function's code id, the callee an
          indirect call names ({!of_code_id}) *)
  code : int array;  (** pc id → predecoded word ({!Decode}) *)
  imms : int64 array;  (** the words' 64-bit immediate pool *)
  bundle : int array;
      (** pc id → bundle id, unique per function, block and bundle: an
          instruction crosses into a new bundle iff the ids differ *)
  block_start : bool array;
      (** pc id → first instruction of its block (the I-fetch point; the
          fetch address is [code_base + 16 * pc]) *)
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
(** Raises [Invalid_argument], naming the function, for a function that
    could run off its end (one with no blocks, or whose last block is
    empty or does not end in [br], [ret], [halt] or [kill]); for a branch,
    [chk.c], call or spawn whose target does not resolve (naming the
    label, callee or spawn target too); and for two functions that share
    a code id (naming both). *)

val find : t -> string -> int
(** The named function's index in [by_index]. Raises [Invalid_argument]
    for a name the program does not define. *)

val pc_of : t -> int -> int -> int
(** [pc_of t fn blk]: the pc id at which block [blk] of the function at
    index [fn] starts executing. *)

val of_code_id : t -> int -> int
(** The [by_index] index of the function with the given code id, or -1
    if none has it. Allocates nothing. *)
