(** Program representation: blocks, functions, whole programs.

    This is the "binary" the post-pass tool reads and adapts: functions are
    arrays of basic blocks in layout order; a block falls through to the next
    block in layout unless its last instruction is a terminator. Blocks carry
    mutable instruction arrays so the tool can replace a [Nop] with a
    [Chk_c] in place, and functions carry mutable block arrays so slice and
    stub blocks can be appended after the function body (the Figure 7
    layout), without disturbing existing {!Iref.t} positions. *)

type block = {
  label : Ssp_isa.Op.label;  (** unique within the function *)
  mutable ops : Ssp_isa.Op.t array;
}

type func = {
  name : string;
  nparams : int;  (** arguments, passed in r8.. *)
  mutable blocks : block array;  (** layout order; entry is [blocks.(0)] *)
  code_id : int;  (** small integer "address" for indirect calls *)
}

type t = {
  funcs : (string, func) Hashtbl.t;
  mutable rev_func_order : string list;
      (** function names, last in layout first, so that {!add_func}
          costs the same at any program size *)
  entry : string;
  mutable data_bytes : int;
      (** size of the zero-initialized data segment mapped at
          {!data_base} *)
}

val data_base : int64
(** Base address of the data segment (globals). *)

val heap_base : int64
(** Base address of the bump-allocated heap. *)

val stack_base : int64
(** Initial stack pointer (stack grows down). *)

val create : entry:string -> t
val add_func : t -> func -> unit
val find_func : t -> string -> func
val funcs_in_order : t -> func list

val block_index : func -> Ssp_isa.Op.label -> int
(** Index in layout order of the block carrying the label.
    Raises [Not_found]. *)

val instr : t -> Iref.t -> Ssp_isa.Op.t
(** The instruction an {!Iref.t} denotes. *)

val iter_instrs : t -> (Iref.t -> Ssp_isa.Op.t -> unit) -> unit
(** Iterate over every instruction of every function in layout order. *)

val instr_count : t -> int

val addr_of : func -> Iref.t -> int
(** Linearized position of an instruction within its function — the
    "instruction address" used for scheduling tie-breaks. *)

val copy : t -> t
(** Deep copy (blocks and instruction arrays are fresh); adaptation
    mutates programs in place, so experiments copy first. *)
