(** Predecoded flat instruction stream for the functional interpreter.

    One packed [int] word per instruction (opcode + register fields +
    signed immediate), 64-bit immediates in a per-function pool. The word
    format and opcode numbering are documented in [decode.ml]; the
    interpreter in {!Funcsim.exec} matches the opcodes as literal
    patterns, so the two must change together. *)

type t = {
  code : int array array;  (** per block: one packed word per instruction *)
  imms : int64 array;  (** 64-bit immediate pool, indexed by [imm] field *)
  n_save : int;
      (** stacked-register prefix this function's code mentions; calls made
          from it save/restore only that many (see decode.ml) *)
}

val opc_slow : int
(** Opcode of ops the interpreter defers to {!Exec.step_op} (boxed form),
    including loads, stores and lfetches whose offset lies outside
    [[-2^35, 2^35)]. *)

val decode_func : func_index:(string -> int) -> Ssp_ir.Prog.func -> t
(** [func_index] maps a callee name to its index in the program's function
    table ([Layout.by_index] order), or -1 when unknown — the call then
    decodes as [slow], preserving execution-time error behavior. *)

val empty : t
(** Placeholder for dummy layout entries. *)
