(** Instructions of the virtual research-Itanium ISA.

    The ISA is the representation the post-pass tool adapts: it matches the
    simulated hardware instruction-for-instruction (the paper operates on a
    compiler IR with the same property). Besides the usual integer/memory/
    control operations it contains the speculative-precomputation extensions
    of the paper: [Chk_c] (the trigger check instruction), [Spawn], [Kill],
    the live-in buffer accessors [Lib_st]/[Lib_ld], and [Lfetch] (prefetch).

    Labels are local to the enclosing function. *)

type label = string

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
(** Integer ALU operations. [Div]/[Rem] by zero yield zero (no faults in
    speculative threads; the functional simulator uses the same rule so main
    and speculative semantics agree). *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge
(** Signed comparisons producing 0 or 1. *)

type width = W1 | W2 | W4 | W8
(** Memory access widths in bytes. Loads zero-extend except [W8]. *)

type t =
  | Nop
  | Movi of Reg.t * int64                 (** [dst <- imm] *)
  | Mov of Reg.t * Reg.t                  (** [dst <- src] *)
  | Alu of alu * Reg.t * Reg.t * Reg.t    (** [dst <- src1 op src2] *)
  | Alui of alu * Reg.t * Reg.t * int64   (** [dst <- src op imm] *)
  | Cmp of cmp * Reg.t * Reg.t * Reg.t    (** [dst <- src1 rel src2] *)
  | Cmpi of cmp * Reg.t * Reg.t * int64   (** [dst <- src rel imm] *)
  | Load of width * Reg.t * Reg.t * int   (** [dst <- mem[base + off]] *)
  | Store of width * Reg.t * Reg.t * int  (** [mem[base + off] <- src] *)
  | Lfetch of Reg.t * int                 (** prefetch line of [base + off] *)
  | Br of label                           (** unconditional branch *)
  | Brnz of Reg.t * label                 (** branch if [src <> 0] *)
  | Brz of Reg.t * label                  (** branch if [src = 0] *)
  | Call of string * int                  (** direct call, [nargs] in r8.. *)
  | Icall of Reg.t * int                  (** indirect call via code id *)
  | Ret
  | Halt                                  (** terminate the program *)
  | Chk_c of label                        (** SSP trigger: if a hardware
      context is free, raise the lightweight exception whose recovery code is
      the stub block at [label]; otherwise behave as a nop *)
  | Spawn of string * label               (** bind a free context to
      [(function, label)], passing the live-in buffer; ignored if none free *)
  | Kill                                  (** thread_kill_self *)
  | Lib_st of int * Reg.t                 (** live-in buffer[slot] <- src *)
  | Lib_ld of Reg.t * int                 (** dst <- live-in buffer[slot] *)
  | Alloc of Reg.t * Reg.t                (** [dst <- bump-allocate src bytes] *)
  | Print of Reg.t                        (** print integer (observable output) *)
  | Rand of Reg.t                         (** [dst <- next deterministic PRN] *)

val width_bytes : width -> int

val defs : t -> Reg.t list
(** Registers written by the instruction. Calls clobber the whole static
    argument partition (r8–r15). Writes to r0 are dropped. *)

val uses : t -> Reg.t list
(** Registers read by the instruction. A call of arity [n] reads its [n]
    argument registers; [Ret] reads the return-value register. *)

val is_control : t -> bool
(** Branches, calls, returns, halt — instructions that end a bundle. *)

val is_terminator : t -> bool
(** Instructions after which control never falls through:
    [Br], [Ret], [Halt], [Kill]. *)

val is_load : t -> bool

val branch_targets : t -> label list
(** Labels this instruction may transfer control to within its function
    (excludes calls and spawns). *)

val alu_eval : alu -> int64 -> int64 -> int64
val cmp_eval : cmp -> int64 -> int64 -> bool

val num : Buffer.t -> int -> unit
(** Appends the decimal text of {!string_of_int} without going through
    [Printf]: the printer's integers. *)

val imm : Buffer.t -> int64 -> unit
(** Appends the decimal text of {!Int64.to_string}, as {!num} does. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the instruction's assembly text ([ld8 r32, [r33+8]]): the one
    instruction printer. Registers print as [rN], immediates in decimal,
    and a memory offset always carries its sign. *)

val pp : Format.formatter -> t -> unit
(** The text of {!add_to_buffer}. *)

val to_string : t -> string
(** The text of {!add_to_buffer}. *)
