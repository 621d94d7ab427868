(** Predecoded flat instruction stream, executed by every engine through
    {!Funcsim.step}.

    One packed [int] word per instruction, indexed by pc id (opcode +
    register fields + signed immediate), and one pool of 64-bit immediates
    for the whole program. Branch, [chk.c] and call targets are pc ids, so
    fall-through is [pc + 1]. The word format and opcode numbering are
    documented in [decode.ml]; {!Funcsim.step} matches the opcodes as
    literal patterns, so the two must change together. *)

type t = {
  code : int array;  (** pc id → packed word *)
  imms : int64 array;  (** 64-bit immediate pool, indexed by [imm] field *)
}

val opc_slow : int
(** Opcode of ops the step defers to {!Exec.step_op} (boxed form),
    including loads, stores and lfetches whose offset lies outside
    [[-2^35, 2^35)]. *)

val decode :
  block_pc:(Ssp_ir.Prog.func -> string -> int) ->
  entry_pc:(string -> int) ->
  Ssp_ir.Prog.func list ->
  t
(** Decode the functions, in pc order. [block_pc f l] is the pc id of the
    block labelled [l] in [f], and [entry_pc name] the pc id of the named
    function's entry; either is -1 when unresolved, and the op then
    decodes as [slow], preserving execution-time error behavior. A call
    word carries, in its b field, how many stacked registers its caller
    mentions: the call saves and restores only that many. *)
