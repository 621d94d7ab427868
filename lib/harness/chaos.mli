(** Chaos campaigns: the speculative-safety invariance checker.

    Speculative threads only prefetch — they never commit architectural
    state — so any fault in the speculative machinery must leave
    main-thread outputs bit-identical to a fault-free, unadapted run.
    [run] sweeps seeded fault plans over every registered injection point
    (adaptation pipeline and simulator), adapts and simulates each
    workload under each plan, and compares architectural outputs against
    two fault-free references: the unadapted cycle simulation and the
    functional simulator. *)

val default_specs : (string * Ssp_fault.Fault.spec) list
(** Every registered fault site with a probability tuned to its query
    rate (per-load adapt sites high, per-event sim sites low). *)

type campaign = {
  c_seed : int;  (** derived plan seed *)
  violations : string list;  (** divergence descriptions; empty = safe *)
  faults : Ssp_fault.Fault.count list;  (** per-site query/fire totals *)
  degraded : int;  (** ladder events that retried a lower rung *)
  skipped : int;  (** loads dropped entirely *)
  slices : int;  (** slices that still made it into the binary *)
}

type workload_result = { w_name : string; campaigns : campaign list }

type report = {
  seed : int;
  n_campaigns : int;
  specs : (string * Ssp_fault.Fault.spec) list;
  workloads : workload_result list;
}

val run :
  ?scale:int ->
  ?specs:(string * Ssp_fault.Fault.spec) list ->
  seed:int ->
  campaigns:int ->
  Ssp_workloads.Workload.t list ->
  report
(** Each workload runs at [scale] (default 2) on the in-order model with
    caches divided by 64, so small working sets still miss.

    Campaigns are sequential: a fault plan is ambient global state. *)

val violations : report -> int
val fired_sites : report -> string list

val pp : Format.formatter -> report -> unit
val to_json : report -> string
