(** Static call graph of the direct calls. The speculative slicer binds a
    procedure's slice at the call sites listed here whose block the
    profile saw run; indirect calls are not bound. *)

type t

val compute : Ssp_ir.Prog.t -> t

val callers : t -> string -> (Ssp_ir.Iref.t * string) list
(** Call sites targeting the function and the caller each lives in. *)
