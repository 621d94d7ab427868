(** One-call frontend: source text → validated ISA program. *)

exception Error of string
(** Any frontend failure (lexing, parsing, typing, lowering, validation),
    with a rendered position. *)

val compile : string -> Ssp_ir.Prog.t
(** Parse, typecheck, lower and validate. *)
