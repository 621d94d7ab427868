(** Dominators (Cooper–Harvey–Kennedy iterative algorithm). *)

type t
(** A dominator tree over the nodes of a digraph. *)

val compute : Digraph.t -> entry:int -> t
(** Immediate dominators of every node reachable from [entry]. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: every path from the root to [b] goes through [a]
    (reflexive). False when either node is unreachable. *)
