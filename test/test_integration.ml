(* End-to-end: compile -> profile -> adapt -> cycle-simulate, on scaled-down
   cache geometries so tests stay fast while preserving the paper's shape
   (in-order benefits from SSP; OOO benefits less; SSP reduces deep-level
   miss cycles). *)

let small_caches cfg = Ssp_machine.Config.scale_caches cfg 64

let run_both workload scale =
  let w = Ssp_workloads.Suite.find workload in
  let prog = Ssp_workloads.Workload.program w ~scale in
  let cfg = small_caches Ssp_machine.Config.in_order in
  let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
  let result = Ssp.Adapt.run ~config:cfg prog profile in
  let base = Ssp_sim.Inorder.run cfg prog in
  let ssp = Ssp_sim.Inorder.run cfg result.Ssp.Adapt.prog in
  (base, ssp, result)

let test_inorder_ssp_speeds_up_mcf () =
  let base, ssp, result = run_both "mcf" 2 in
  Alcotest.(check (list int64)) "same outputs under the cycle model"
    base.Ssp_sim.Stats.outputs ssp.Ssp_sim.Stats.outputs;
  Alcotest.(check bool) "slices were generated" true
    (result.Ssp.Adapt.choices <> []);
  Alcotest.(check bool) "speculative threads spawned" true
    (ssp.Ssp_sim.Stats.spawns > 0);
  let speedup =
    float_of_int base.Ssp_sim.Stats.cycles /. float_of_int ssp.Ssp_sim.Stats.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "in-order SSP speedup %.3f > 1.02" speedup)
    true (speedup > 1.02)

let test_ssp_reduces_deep_misses () =
  let base, ssp, _ = run_both "mcf" 2 in
  let deep (s : Ssp_sim.Stats.t) =
    s.Ssp_sim.Stats.categories.(Ssp_sim.Stats.category_index Ssp_sim.Stats.Cat_l3)
    + s.Ssp_sim.Stats.categories.(Ssp_sim.Stats.category_index Ssp_sim.Stats.Cat_l2)
  in
  Alcotest.(check bool) "L2+L3 stall cycles shrink" true (deep ssp < deep base)

let test_perfect_modes_bound () =
  (* perfect-memory must beat perfect-delinquent must beat the baseline. *)
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:2 in
  let cfg = small_caches Ssp_machine.Config.in_order in
  let profile = Ssp_profiling.Collect.collect prog in
  let d = Ssp.Delinquent.identify prog profile in
  let base = Ssp_sim.Inorder.run cfg prog in
  let pmem =
    Ssp_sim.Inorder.run
      (Ssp_machine.Config.with_memory_mode cfg Ssp_machine.Config.Perfect_memory)
      prog
  in
  let pdel =
    Ssp_sim.Inorder.run
      (Ssp_machine.Config.with_memory_mode cfg
         (Ssp_machine.Config.Perfect_delinquent (Ssp.Delinquent.set d)))
      prog
  in
  Alcotest.(check bool) "perfect memory fastest" true
    (pmem.Ssp_sim.Stats.cycles <= pdel.Ssp_sim.Stats.cycles);
  Alcotest.(check bool) "perfect delinquent beats baseline" true
    (pdel.Ssp_sim.Stats.cycles < base.Ssp_sim.Stats.cycles);
  Alcotest.(check (list int64)) "outputs stable" base.Ssp_sim.Stats.outputs
    pmem.Ssp_sim.Stats.outputs

let test_ooo_beats_inorder_baseline () =
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:2 in
  let io = Ssp_sim.Inorder.run (small_caches Ssp_machine.Config.in_order) prog in
  let ooo =
    Ssp_sim.Ooo.run (small_caches Ssp_machine.Config.out_of_order) prog
  in
  Alcotest.(check (list int64)) "same outputs" io.Ssp_sim.Stats.outputs
    ooo.Ssp_sim.Stats.outputs;
  Alcotest.(check bool)
    (Printf.sprintf "OOO (%d) faster than in-order (%d)"
       ooo.Ssp_sim.Stats.cycles io.Ssp_sim.Stats.cycles)
    true
    (ooo.Ssp_sim.Stats.cycles < io.Ssp_sim.Stats.cycles)

let test_ssp_helps_both_pipelines () =
  (* SSP must pay off on the in-order model (the paper's headline) and must
     not hurt the OOO model. (In the paper OOO gains are smaller than
     in-order gains; our OOO model's 18-entry reservation station limits its
     own memory-level parallelism more than the authors' machine, so helper
     threads buy it comparatively more — see EXPERIMENTS.md.) *)
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:2 in
  let io_cfg = small_caches Ssp_machine.Config.in_order in
  let ooo_cfg = small_caches Ssp_machine.Config.out_of_order in
  let profile = Ssp_profiling.Collect.collect ~config:io_cfg prog in
  let adapted_io = (Ssp.Adapt.run ~config:io_cfg prog profile).Ssp.Adapt.prog in
  let adapted_ooo = (Ssp.Adapt.run ~config:ooo_cfg prog profile).Ssp.Adapt.prog in
  let io = Ssp_sim.Inorder.run io_cfg prog in
  let io_ssp = Ssp_sim.Inorder.run io_cfg adapted_io in
  let ooo = Ssp_sim.Ooo.run ooo_cfg prog in
  let ooo_ssp = Ssp_sim.Ooo.run ooo_cfg adapted_ooo in
  let s_io = float_of_int io.Ssp_sim.Stats.cycles /. float_of_int io_ssp.Ssp_sim.Stats.cycles in
  let s_ooo = float_of_int ooo.Ssp_sim.Stats.cycles /. float_of_int ooo_ssp.Ssp_sim.Stats.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "in-order gain %.3f > 1.02" s_io)
    true (s_io > 1.02);
  Alcotest.(check bool)
    (Printf.sprintf "ooo gain %.3f >= 0.97" s_ooo)
    true (s_ooo >= 0.97)

let test_spec_threads_never_store () =
  (* Machine-level enforcement: run an adapted binary and check memory
     behaviour by comparing final outputs across many workloads. *)
  List.iter
    (fun name ->
      let w = Ssp_workloads.Suite.find name in
      let prog = Ssp_workloads.Workload.program w ~scale:1 in
      let profile = Ssp_profiling.Collect.collect prog in
      let r = Ssp.Adapt.run ~config:Ssp_machine.Config.in_order prog profile in
      let base = Ssp_sim.Funcsim.run prog in
      let live = Ssp_sim.Funcsim.run ~spawning:true r.Ssp.Adapt.prog in
      Alcotest.(check (list int64))
        (name ^ " outputs unchanged")
        base.Ssp_sim.Funcsim.outputs live.Ssp_sim.Funcsim.outputs)
    [ "mcf"; "em3d"; "health"; "treeadd.df"; "treeadd.bf"; "vpr"; "mst" ]

let suite =
  [
    Alcotest.test_case "in-order SSP speeds up mcf" `Slow
      test_inorder_ssp_speeds_up_mcf;
    Alcotest.test_case "SSP reduces deep miss cycles" `Slow
      test_ssp_reduces_deep_misses;
    Alcotest.test_case "perfect-memory bounds" `Slow test_perfect_modes_bound;
    Alcotest.test_case "OOO beats in-order baseline" `Slow
      test_ooo_beats_inorder_baseline;
    Alcotest.test_case "SSP helps both pipelines" `Slow
      test_ssp_helps_both_pipelines;
    Alcotest.test_case "adapted binaries preserve semantics (all workloads)"
      `Slow test_spec_threads_never_store;
  ]

(* ---------- harness smoke (micro setting) ---------- *)

let micro_setting =
  { Ssp_harness.Experiment.scale = 1; cache_divisor = 64; label = "micro" }

let test_harness_runs_and_is_consistent () =
  let w = Ssp_workloads.Suite.find "mcf" in
  let r = Ssp_harness.Experiment.run_benchmark ~setting:micro_setting w in
  (* consistency assertions the figures rely on *)
  Alcotest.(check bool) "perfect memory is the fastest in-order config" true
    (r.Ssp_harness.Experiment.io_pmem.Ssp_sim.Stats.cycles
    <= r.Ssp_harness.Experiment.io_base.Ssp_sim.Stats.cycles);
  Alcotest.(check bool) "perfect delinquent within perfect memory and base" true
    (r.Ssp_harness.Experiment.io_pmem.Ssp_sim.Stats.cycles
     <= r.Ssp_harness.Experiment.io_pdel.Ssp_sim.Stats.cycles
    && r.Ssp_harness.Experiment.io_pdel.Ssp_sim.Stats.cycles
       <= r.Ssp_harness.Experiment.io_base.Ssp_sim.Stats.cycles);
  (* memoization: second call must hit the cache (same physical result) *)
  let r2 = Ssp_harness.Experiment.run_benchmark ~setting:micro_setting w in
  Alcotest.(check bool) "memoized" true (r == r2)

(* The memo is keyed by the whole setting: a second setting that shares
   the label but not the scale is a different run, not a memo hit. *)
let test_memo_keyed_by_setting () =
  let module E = Ssp_harness.Experiment in
  let w = Ssp_workloads.Suite.find "health" in
  let run scale =
    E.run_benchmark ~setting:{ E.scale; cache_divisor = 64; label = "memo" } w
  in
  let r1 = run 1 in
  let r2 = run 2 in
  let prog2 = Ssp_workloads.Workload.program w ~scale:2 in
  Alcotest.(check int)
    "scale-2 run simulates the scale-2 program"
    (Ssp_sim.Funcsim.run prog2).Ssp_sim.Funcsim.instrs
    r2.E.io_base.Ssp_sim.Stats.main_instrs;
  Alcotest.(check bool)
    "the scales differ in main-thread instructions" true
    (r1.E.io_base.Ssp_sim.Stats.main_instrs
    <> r2.E.io_base.Ssp_sim.Stats.main_instrs)

let test_table_renderer () =
  let out =
    Format.asprintf "%a"
      (fun ppf () ->
        Ssp_harness.Render.table ppf ~header:[ "a"; "bb" ]
          [ [ "1"; "2" ]; [ "333"; "4" ] ])
      ()
  in
  Alcotest.(check bool) "contains rows" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.length >= 4);
  Alcotest.(check string) "bar" "#####" (Ssp_harness.Render.bar 0.5 ~max:1.0 ~width:10);
  Alcotest.(check string) "bar clamps" "##########"
    (Ssp_harness.Render.bar 9.9 ~max:1.0 ~width:10)

let suite =
  suite
  @ [
      Alcotest.test_case "harness consistency (micro)" `Slow
        test_harness_runs_and_is_consistent;
      Alcotest.test_case "table renderer" `Quick test_table_renderer;
      Alcotest.test_case "harness memo keyed by the whole setting" `Slow
        test_memo_keyed_by_setting;
    ]
