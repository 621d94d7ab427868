(** Predecoded flat instruction stream, executed by every engine through
    {!Funcsim.step}.

    One packed [int] word per instruction, indexed by pc id (opcode +
    register fields + signed immediate), and one pool of 64-bit immediates
    for the whole program. Every {!Ssp_isa.Op.t} constructor decodes to a
    word of its own. Branch, [chk.c], call and spawn targets are pc ids, so
    fall-through is [pc + 1]. The word format and opcode numbering are
    documented in [decode.ml]; {!Funcsim.step} matches the opcodes as
    literal patterns, so the two must change together. *)

type t = {
  code : int array;  (** pc id → packed word *)
  imms : int64 array;
      (** 64-bit immediate pool, indexed by [imm] field: the immediates of
          [movi], [alui] and [cmpi], and memory offsets outside
          [[-2^35, 2^35)] *)
}

val decode :
  block_pc:(string -> string -> int) ->
  entry_pc:(string -> int) ->
  Ssp_ir.Prog.func array ->
  int array ->
  Ssp_isa.Op.t array ->
  t
(** [decode ~block_pc ~entry_pc funcs fn_of ops] decodes the ops, in pc
    order; the op at pc id [k] belongs to [funcs.(fn_of.(k))].
    [block_pc fn l] is the pc id of the block labelled [l] in the function
    named [fn], and [entry_pc fn] the pc id of its entry; either is -1
    when unresolved, and decoding the op then raises [Invalid_argument],
    naming the op's function and the label, callee or spawn target. A
    call or icall word carries, in its b field, how many stacked
    registers its caller mentions: the call saves and restores only that
    many. *)
