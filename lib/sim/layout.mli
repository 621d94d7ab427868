(** Static per-program layout tables shared by the cycle simulators and the
    functional interpreter.

    One [entry] per function carries:
    - the absolute program-counter id of every block's first instruction
      (a pc id is a dense global instruction number used as the branch
      predictor index, the profile counters' index and, scaled by 16, the
      instruction-fetch address);
    - the static bundle index of every instruction (issue-bandwidth
      accounting in bundle units).

    The numbering replicates the historical pcmap exactly (functions in
    [funcs_in_order] order, blocks sequential), so predictor/BTB indices are
    independent of the lookup structure. [irefs] inverts the numbering —
    the hot loops fetch a preallocated {!Ssp_ir.Iref.t} by pc instead of
    allocating one per instruction. *)

type entry = {
  func : Ssp_ir.Prog.func;
  block_base : int array;  (** absolute pc id of each block's first instr *)
  bundle_idx : int array array;  (** per block: bundle index per instr *)
  blk0_iaddr : int array;
      (** fetch address of each block's first instr as a native int — the
          decoded interpreter warms the I-cache without int64 arithmetic *)
  dec : Decode.t;  (** predecoded flat instruction stream *)
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  by_index : entry array;
      (** entries in [funcs_in_order] order; decoded call words index
          this table directly *)
  n_pcs : int;  (** total static instruction count *)
  irefs : Ssp_ir.Iref.t array;  (** pc id → instruction reference *)
}

val code_base : int64
(** Base pseudo-address of the code segment (16 bytes per instruction,
    distinct from data addresses). *)

val code_base_i : int
(** [code_base] as a native int (addresses fit in 62 bits). *)

val dummy : entry
(** Physically-unique placeholder for per-context caches; never returned by
    [find]. *)

val of_prog : Ssp_ir.Prog.t -> t
val find : t -> string -> entry
(** Raises [Invalid_argument] for a name the program does not define. *)

val pc_addr : entry -> blk:int -> ins:int -> int64
val iref_of : t -> int -> Ssp_ir.Iref.t
