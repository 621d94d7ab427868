(** Static call graph (direct calls). Indirect call targets come from the
    dynamic call-graph profile and are merged in by the tool's speculative
    slicing phase. *)

type t

val compute : Ssp_ir.Prog.t -> t

val callees : t -> string -> (Ssp_ir.Iref.t * string) list
(** Call sites within the function and the callee each targets. *)

val callers : t -> string -> (Ssp_ir.Iref.t * string) list
(** Call sites targeting the function and the caller each lives in. *)

val is_recursive : t -> string -> bool
(** Whether the function participates in a call-graph cycle (including
    self-recursion). *)
