(** Experiment driver: compile → profile → adapt → simulate each benchmark
    under every configuration the paper's evaluation needs, once, and share
    the runs across figures.

    A {!setting} scales the working sets and (optionally) the caches so the
    whole evaluation can also run as a quick smoke test with the same
    shape. The reference setting uses the Table 1 geometry unmodified with
    working sets beyond the L3. *)

type setting = {
  scale : int;  (** workload size knob *)
  cache_divisor : int;  (** 1 = the paper's Table 1 geometry *)
  label : string;
}

val reference : setting
val quick : setting

type runs = {
  name : string;
  io_base : Ssp_sim.Stats.t;
  io_ssp : Ssp_sim.Stats.t;
  io_pmem : Ssp_sim.Stats.t;
  io_pdel : Ssp_sim.Stats.t;
  ooo_base : Ssp_sim.Stats.t;
  ooo_ssp : Ssp_sim.Stats.t;
  ooo_pmem : Ssp_sim.Stats.t;
  ooo_pdel : Ssp_sim.Stats.t;
  report : Ssp.Report.t;
  delinquent : Ssp_ir.Iref.Set.t;
}

val run_benchmark :
  ?setting:setting -> ?jobs:int -> Ssp_workloads.Workload.t -> runs
(** Memoized per (benchmark, whole setting) within the process (the memo is
    mutex-guarded, so concurrent callers are safe). [jobs] > 1 fans the
    benchmark's eight independent sim points out across a domain pool;
    results are identical to the sequential run. *)

val prime :
  ?setting:setting -> jobs:int -> Ssp_workloads.Workload.t list -> unit
(** Fill the {!run_benchmark} memo for all the given workloads: every
    workload's preparation (compile, profile, adapt for both pipelines)
    as one pool batch, then all their sim points as one batch,
    so no worker idles while another runs the longest workload alone. The
    runs are [run_benchmark]'s, field for field. Subsequent
    [run_benchmark] calls hit the memo, so figure/table rendering stays
    sequential and ordered while the heavy simulation work parallelizes. *)

val speedup : baseline:Ssp_sim.Stats.t -> Ssp_sim.Stats.t -> float
(** cycles(baseline) / cycles(x). *)

val config_for :
  setting -> Ssp_machine.Config.pipeline -> Ssp_machine.Config.t

type sampling_check = {
  sc_name : string;
  sc_full : Ssp_sim.Stats.t;  (** full-detail run *)
  sc_sampled : Ssp_sim.Stats.t;  (** sampled run, same binary *)
  sc_ipc_err : float;  (** relative IPC error of the sampled run *)
  sc_l1d_err : float;  (** absolute L1d-miss-rate difference *)
  sc_outputs_equal : bool;  (** must always hold: FF is architecturally exact *)
}

val sampling_accuracy :
  ?setting:setting ->
  ?sampling:Ssp_sim.Smt.sampling ->
  pipeline:Ssp_machine.Config.pipeline ->
  Ssp_workloads.Workload.t ->
  sampling_check
(** Run one workload full-detail and sampled (default
    {!Ssp_sim.Smt.default_sampling}, default [quick] setting) and compare:
    the accuracy contract behind the sampled-simulation mode. *)
