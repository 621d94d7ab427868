(** Control-flow graph of a function, at basic-block granularity.

    Nodes are block indices in layout order (entry = 0). A block falls
    through to the next block in layout unless its last instruction is a
    terminator; conditional branches contribute both the taken edge and the
    fall-through edge. [Chk_c] recovery stubs and [Spawn] targets are not
    normal control flow and contribute no edges. *)

type t = {
  func : Ssp_ir.Prog.func;
  graph : Digraph.t;  (** block-level successor/predecessor graph *)
}

val of_func : Ssp_ir.Prog.func -> t

val succ : t -> int -> int list
val pred : t -> int -> int list
val n_blocks : t -> int

val block_of_label : t -> string -> int
(** Raises [Not_found]. *)
