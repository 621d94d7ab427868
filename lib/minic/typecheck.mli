(** Type checking for mini-C.

    The checker is the single implementation of the typing rules; the
    lowering pass queries it for subexpression types rather than
    re-deriving them. Pointer arithmetic is element-scaled (adding an
    integer to a [T*] advances by whole elements, like C), every scalar
    occupies 8 bytes, and [null] is compatible with every pointer type. *)

exception Error of string * Ast.pos

type env

val check_program : Ast.program -> env
(** Collects structs, globals and functions (rejecting duplicates,
    unknown field types, and parameter counts beyond the 8 argument
    registers), then checks every function body. *)

val sizeof_struct : env -> string -> int
val field_offset : env -> string -> string -> int * Ast.ty
(** Byte offset and type of a field. Raises [Not_found]. *)

val elem_size : env -> Ast.ty -> int
(** Size of the pointee of a pointer type (what pointer arithmetic and
    indexing scale by). *)

val find_func : env -> string -> Ast.func_def option
val find_global : env -> string -> Ast.global_def option
val global_offset : env -> string -> int
(** Byte offset of a global in the data segment. *)

val data_segment_bytes : env -> int

val type_of_expr :
  env -> vars:(string -> Ast.ty option) -> Ast.expr -> Ast.ty
(** Type of an expression given a local-variable environment; raises
    {!Error} on ill-typed input. A void call has no value: using one in
    expression position is an error; [check_stmt] special-cases call
    statements. *)
