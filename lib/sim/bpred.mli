(** Branch prediction: a 2k-entry gshare direction predictor and a
    256-entry 4-way BTB for targets. History registers are per thread;
    prediction tables are shared (SMT). *)

type t

val create : Ssp_machine.Config.t -> t

val predict : t -> thread:int -> pc:int -> bool
(** Predicted direction for the branch at the given (hashed) pc. *)

val update : t -> thread:int -> pc:int -> taken:bool -> unit
(** Train the predictor and advance the thread's history. *)

val btb_lookup : t -> pc:int -> bool
(** Whether the BTB knows the target of the branch at the pc. *)

val btb_insert : t -> pc:int -> unit
