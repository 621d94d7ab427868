(** The region graph: a hierarchical program representation whose nodes are
    procedures and loops, with edges from callers to callees and from outer
    scopes to inner scopes (§3.1.1). Region-based slicing walks it from the
    innermost region containing a delinquent load outward until the slack is
    large enough.

    The paper also lists "loop body" as a region; here a loop and its body
    cover the same block set, and the distinction is carried by the
    precomputation model chosen for the region (basic SP targets the loop
    body, chaining SP the loop). *)

type region =
  | Proc of string
  | Loop of string * int  (** function name, loop id within it *)

type t

val compute : Ssp_ir.Prog.t -> t

val prog : t -> Ssp_ir.Prog.t

val cfg_of : t -> string -> Cfg.t
val loops_of : t -> string -> Loops.t
val reaching_of : t -> string -> Reaching.t
(** Reaching definitions of the function, memoized: what the slicer and
    the scheduler read. *)

val innermost_at : t -> Ssp_ir.Iref.t -> region
(** Innermost region containing the instruction: its innermost loop, or its
    procedure when it is not inside any loop. *)

val parent : t -> region -> region option
(** Enclosing region within the same function ([None] for a [Proc];
    crossing to callers is the tool's decision, made with profile data). *)

val func_of : region -> string

val blocks_of : t -> region -> int list
(** Block indices the region covers. *)

val in_region : t -> region -> int -> bool
(** O(1) membership of a block in the region, via bitsets precomputed at
    [compute] time (the slicer's hot path; [blocks_of] is O(blocks)). *)

val freeze : t -> unit
(** Force {!reaching_of} for every function, the one memoized artifact.
    Afterwards the structure is read-only and safe to share across
    domains; [reaching_of] itself is not safe to race on a cold entry.
    Only a parallel adaptation calls it: a sequential one computes the
    reaching definitions of the functions it slices, on demand. *)

val loop_of : t -> region -> Loops.loop option

val depth : t -> region -> int
(** Nesting depth within the function: [Proc] = 0, outermost loop = 1, … *)

val pp : Format.formatter -> region -> unit
