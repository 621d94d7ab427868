(** Natural loops and the loop-nesting forest.

    A back edge is an edge [t -> h] where [h] dominates [t]; the natural
    loop of [h] is the set of blocks that can reach some back-edge source
    without passing through [h]. Loops sharing a header are merged. *)

type loop = {
  id : int;
  header : int;  (** header block index *)
  body : int list;  (** all blocks of the loop, including the header *)
  back_edges : (int * int) list;  (** the [t -> h] edges *)
  parent : int option;  (** id of the innermost enclosing loop *)
  depth : int;  (** nesting depth, outermost = 1 *)
}

type t

val compute : Cfg.t -> Dom.t -> t
val all : t -> loop list
val find : t -> int -> loop
(** Loop by id. *)

val innermost_at : t -> int -> loop option
(** The innermost loop containing the block, if any. *)
