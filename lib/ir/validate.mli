(** Structural validation of programs.

    Checks performed:
    - the entry function exists and every [Call]/[Spawn] target resolves;
    - no two functions share a code id (an [Icall] names its callee by
      one);
    - every branch label resolves within its function;
    - block labels are unique within each function;
    - the last block of a function ends with a terminator (no falling off);
    - register numbers are in range;
    - [Chk_c] recovery labels resolve and the referenced stub blocks end in
      a branch back into the function (recovery code must resume);
    - speculative slice regions contain no [Store] (checked separately by
      the tool; here only ISA-level well-formedness is enforced). *)

type error = { where : Iref.t option; message : string }

val pp_error : Format.formatter -> error -> unit

val check : Prog.t -> (unit, error list) result
(** All structural errors found, or [Ok ()]. *)
