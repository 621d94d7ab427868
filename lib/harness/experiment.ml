open Ssp_machine
module Simulate = Ssp_sim.Simulate

type setting = { scale : int; cache_divisor : int; label : string }

let reference = { scale = 32; cache_divisor = 1; label = "reference" }
let quick = { scale = 3; cache_divisor = 16; label = "quick" }

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

let config_for setting pipeline =
  let base =
    match pipeline with
    | Config.In_order -> Config.in_order
    | Config.Out_of_order -> Config.out_of_order
  in
  if setting.cache_divisor = 1 then base
  else Config.scale_caches base setting.cache_divisor

(* Main-thread L1d miss rate aggregated over the per-site load stats. *)
let l1d_miss_rate (s : Ssp_sim.Stats.t) =
  let accesses, l1 =
    Ssp_ir.Iref.Tbl.fold
      (fun _ (site : Ssp_sim.Stats.load_site) (a, h) ->
        (a + site.Ssp_sim.Stats.accesses, h + site.Ssp_sim.Stats.l1))
      s.Ssp_sim.Stats.loads (0, 0)
  in
  if accesses = 0 then 0.
  else 1. -. (float_of_int l1 /. float_of_int accesses)

type sampling_check = {
  sc_name : string;
  sc_full : Ssp_sim.Stats.t;
  sc_sampled : Ssp_sim.Stats.t;
  sc_ipc_err : float;
  sc_l1d_err : float;
  sc_outputs_equal : bool;
}

let sampling_accuracy ?(setting = quick)
    ?(sampling = Ssp_sim.Smt.default_sampling) ~pipeline
    (w : Ssp_workloads.Workload.t) =
  let cfg = config_for setting pipeline in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.scale in
  let full = Simulate.run cfg prog in
  let sampled = Simulate.run ~sampling cfg prog in
  let ipc = Ssp_sim.Stats.ipc in
  {
    sc_name = w.Ssp_workloads.Workload.name;
    sc_full = full;
    sc_sampled = sampled;
    sc_ipc_err =
      abs_float (ipc sampled -. ipc full) /. Float.max 1e-9 (ipc full);
    sc_l1d_err = abs_float (l1d_miss_rate sampled -. l1d_miss_rate full);
    sc_outputs_equal =
      sampled.Ssp_sim.Stats.outputs = full.Ssp_sim.Stats.outputs;
  }

(* The memo is shared by every figure; guard it so workloads primed from
   pool workers can publish results concurrently. It is keyed by the whole
   setting: two settings that share a label are still different runs. *)
let cache : (string * setting, runs) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()
let cache_find key = Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key)
let cache_put key r = Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache key r)

(* A workload's preparation (compile, profile, adapt for both pipelines):
   its eight sim points and the assembly of their statistics into its
   runs. The points are independent (each builds its own machine over the
   read-only program), so they fan out across a pool; results are
   positional, so the record fields — and therefore every downstream
   table — are independent of scheduling. *)
let prepare ~setting ~jobs (w : Ssp_workloads.Workload.t) =
  let name = w.Ssp_workloads.Workload.name in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.scale in
  let io_cfg = config_for setting Config.In_order in
  let ooo_cfg = config_for setting Config.Out_of_order in
  let profile = Ssp_profiling.Collect.collect ~config:io_cfg prog in
  let d = Ssp.Delinquent.identify prog profile in
  let delinquent = Ssp.Delinquent.set d in
  let adapted_io = Ssp.Adapt.run ~jobs ~config:io_cfg prog profile in
  let adapted_ooo = Ssp.Adapt.run ~jobs ~config:ooo_cfg prog profile in
  let mode m cfg = Config.with_memory_mode cfg m in
  let pdel = Config.Perfect_delinquent delinquent in
  let points =
    [|
      (fun () -> Simulate.run io_cfg prog);
      (fun () -> Simulate.run io_cfg adapted_io.Ssp.Adapt.prog);
      (fun () -> Simulate.run (mode Config.Perfect_memory io_cfg) prog);
      (fun () -> Simulate.run (mode pdel io_cfg) prog);
      (fun () -> Simulate.run ooo_cfg prog);
      (fun () -> Simulate.run ooo_cfg adapted_ooo.Ssp.Adapt.prog);
      (fun () -> Simulate.run (mode Config.Perfect_memory ooo_cfg) prog);
      (fun () -> Simulate.run (mode pdel ooo_cfg) prog);
    |]
  in
  let assemble (stats : Ssp_sim.Stats.t array) =
    let r =
      {
        name;
        io_base = stats.(0);
        io_ssp = stats.(1);
        io_pmem = stats.(2);
        io_pdel = stats.(3);
        ooo_base = stats.(4);
        ooo_ssp = stats.(5);
        ooo_pmem = stats.(6);
        ooo_pdel = stats.(7);
        report = adapted_io.Ssp.Adapt.report;
        delinquent;
      }
    in
    (* Sanity: every configuration must compute the same outputs. *)
    List.iter
      (fun (s : Ssp_sim.Stats.t) ->
        if s.Ssp_sim.Stats.outputs <> r.io_base.Ssp_sim.Stats.outputs then
          failwith
            (Printf.sprintf "Experiment.run_benchmark: %s outputs diverge"
               name))
      [ r.io_ssp; r.io_pmem; r.io_pdel; r.ooo_base; r.ooo_ssp; r.ooo_pmem;
        r.ooo_pdel ];
    r
  in
  (points, assemble)

let run_benchmark ?(setting = reference) ?(jobs = 1)
    (w : Ssp_workloads.Workload.t) =
  let key = (w.Ssp_workloads.Workload.name, setting) in
  match cache_find key with
  | Some r -> r
  | None ->
    let points, assemble = prepare ~setting ~jobs w in
    let r =
      assemble
        (Ssp_parallel.Pool.with_pool ~jobs (fun pool ->
             Ssp_parallel.Pool.map_array pool (fun f -> f ()) points))
    in
    cache_put key r;
    r

(* Fill the memo for a list of workloads in two batches: every
   preparation, then every workload's sim points, so the longest
   workload's points spread over the pool instead of running on one
   worker at the end (the per-workload adapt stays sequential — no
   nested pools). *)
let prime ?(setting = reference) ~jobs (ws : Ssp_workloads.Workload.t list) =
  let ws = Array.of_list ws in
  Ssp_parallel.Pool.with_pool ~jobs (fun pool ->
      let preps =
        Ssp_parallel.Pool.map_array pool (prepare ~setting ~jobs:1) ws
      in
      let stats =
        Ssp_parallel.Pool.map_array pool
          (fun f -> f ())
          (Array.concat (Array.to_list (Array.map fst preps)))
      in
      let at = ref 0 in
      Array.iteri
        (fun i (points, assemble) ->
          let n = Array.length points in
          cache_put
            (ws.(i).Ssp_workloads.Workload.name, setting)
            (assemble (Array.sub stats !at n));
          at := !at + n)
        preps)

let speedup ~baseline x =
  float_of_int baseline.Ssp_sim.Stats.cycles
  /. float_of_int x.Ssp_sim.Stats.cycles
