(** Imperative construction of functions and programs.

    A function builder hands out fresh stacked registers and fresh labels,
    accumulates instructions into the current block, and produces a
    {!Prog.func} on [finish]. Blocks are emitted in creation order, which is
    the layout order of the final function. *)

type t

val create : ?code_id:int -> name:string -> nparams:int -> unit -> t

val fresh_reg : t -> Ssp_isa.Reg.t
(** Next unused stacked register. Raises [Failure] when the stacked
    partition (96 registers) is exhausted. *)

val fresh_label : t -> string -> Ssp_isa.Op.label
(** A label unique within the function, with the given stem. *)

val start_block : t -> Ssp_isa.Op.label -> unit
(** Begin a new block with the given label. The previous block is sealed; if
    its last instruction is not a terminator, control falls through. *)

val emit : t -> Ssp_isa.Op.t -> unit
(** Append an instruction to the current block. *)

val finish : t -> Prog.func
(** Seal and return the function. The entry block is the first one started
    (or ["entry"], created implicitly if [emit] is called first). *)

val func_of_blocks :
  ?code_id:int ->
  name:string ->
  nparams:int ->
  (Ssp_isa.Op.label * Ssp_isa.Op.t list) list ->
  Prog.func
(** Convenience: build a function directly from labeled instruction lists. *)
