(** Profile data consumed by the post-pass tool: run-time block frequencies
    (annotating the CFG, §2.2, and filtering never-executed call sites in
    speculative slicing, §3.1.2), per-branch direction bias (condition
    prediction, §3.2.1.1), and per-static-load cache behaviour
    (delinquent-load identification and latency annotation). *)

type load_stats = {
  mutable accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable mem_hits : int;
  mutable partial_hits : int;
  mutable miss_cycles : int;
      (** total cycles spent beyond an L1 hit, the paper's "miss cycles" *)
}

type branch_stats = { mutable taken : int; mutable not_taken : int }

type t = {
  blocks : (string, int array) Hashtbl.t;  (** executions per block *)
  branches : branch_stats Ssp_ir.Iref.Tbl.t;
  loads : load_stats Ssp_ir.Iref.Tbl.t;
  mutable total_instrs : int;
}

val create : unit -> t

val block_freq : t -> string -> int -> int
val branch_bias : t -> Ssp_ir.Iref.t -> branch_stats option
val load_stats : t -> Ssp_ir.Iref.t -> load_stats option

val avg_load_latency : t -> Ssp_machine.Config.t -> Ssp_ir.Iref.t -> int
(** Average observed load-to-use latency of the static load (L1 latency if
    never profiled) — the latency annotation the scheduler puts on
    dependence edges. *)

val executed : t -> Ssp_ir.Iref.t -> bool
(** Whether the instruction's block was ever executed (control-flow
    speculation filter). *)
