(* Sampled-simulation accuracy contract and the generated workload corpus.

   The sampled mode's contract has two halves:

   - outputs are BYTE-IDENTICAL to the full-detail run (fast-forward is
     architecturally exact — it executes every instruction, it only skips
     the timing model), so outputs do not depend on timing, and
   - the extrapolated timing is close: IPC within 3% and the L1d miss
     rate within 3 points of the full run, on every suite workload and
     both cycle cores.

   The accuracy runs use scale 4 — the smallest working set where the
   detail/fast-forward alternation has enough windows to be in the regime
   sampling is specified for (at scale 3 the shortest workloads run only
   a handful of windows and the extrapolation error is dominated by the
   end effects). The simulators are deterministic, so these checks are
   exact regressions, not statistical ones. *)

let setting = { Ssp_harness.Experiment.quick with scale = 4; label = "sampling" }
let ipc_eps = 0.03
let l1d_eps = 0.03

let check_accuracy pipeline () =
  List.iter
    (fun w ->
      let r =
        Ssp_harness.Experiment.sampling_accuracy ~setting ~pipeline w
      in
      let name = r.Ssp_harness.Experiment.sc_name in
      Alcotest.(check bool)
        (name ^ ": outputs byte-identical")
        true r.Ssp_harness.Experiment.sc_outputs_equal;
      let ipc_err = Float.abs r.Ssp_harness.Experiment.sc_ipc_err in
      if ipc_err > ipc_eps then
        Alcotest.failf "%s: sampled IPC error %.2f%% exceeds %.0f%%" name
          (100. *. ipc_err) (100. *. ipc_eps);
      let l1d_err = Float.abs r.Ssp_harness.Experiment.sc_l1d_err in
      if l1d_err > l1d_eps then
        Alcotest.failf "%s: sampled L1d miss-rate error %.2f exceeds %.2f"
          name l1d_err l1d_eps)
    Ssp_workloads.Suite.all

(* Sampled runs of an ADAPTED binary must also keep outputs identical:
   the fast-forward interpreter executes the injected speculative-thread
   machinery (spawn, kill, chk.c and the live-in buffer accesses) without
   letting it commit state. *)
let sampled_adapted () =
  let open Ssp_harness.Experiment in
  let cfg = config_for setting Ssp_machine.Config.In_order in
  let w = Ssp_workloads.Suite.find "mst" in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.scale in
  let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
  let r = Ssp.Adapt.run ~config:cfg prog profile in
  let full = Ssp_sim.Inorder.run cfg r.Ssp.Adapt.prog in
  let samp =
    Ssp_sim.Inorder.run ~sampling:Ssp_sim.Smt.default_sampling cfg
      r.Ssp.Adapt.prog
  in
  Alcotest.(check (list int64))
    "adapted outputs identical" full.Ssp_sim.Stats.outputs
    samp.Ssp_sim.Stats.outputs

(* The seed -> source mapping is a cross-process contract (splitmix64,
   no [Random], no [Hashtbl.hash]): corpus runs are replayable from the
   seed alone. The digest below was recorded once and must never drift —
   a change means previously reported corpus results are unreproducible. *)
let corpus_digest () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (w : Ssp_workloads.Workload.t) ->
      Buffer.add_string b w.Ssp_workloads.Workload.name;
      Buffer.add_string b (w.Ssp_workloads.Workload.source 1);
      Buffer.add_string b (w.Ssp_workloads.Workload.source 3))
    (Ssp_workloads.Suite.corpus ~n:25 ~seed:1);
  Alcotest.(check string)
    "seeds 1..25, scales {1,3}" "3efa2396331990349bdec64e3ee12d8e"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let corpus_registry () =
  let w = Ssp_workloads.Suite.find "gen:42" in
  Alcotest.(check string) "resolved by name" "gen:42"
    w.Ssp_workloads.Workload.name;
  let ws = Ssp_workloads.Suite.corpus ~n:5 ~seed:7 in
  Alcotest.(check (list string))
    "consecutive seeds"
    [ "gen:7"; "gen:8"; "gen:9"; "gen:10"; "gen:11" ]
    (List.map (fun (w : Ssp_workloads.Workload.t) -> w.name) ws);
  Alcotest.check_raises "unknown name still raises" Not_found (fun () ->
      ignore (Ssp_workloads.Suite.find "gen:notanumber"))

(* Every corpus member must survive the full differential: compile,
   profile, adapt, and keep outputs identical to the unadapted binary
   across all three execution engines. A small chaos campaign over a few
   members is the test-sized version of the CI corpus smoke. *)
let corpus_differential () =
  let report =
    Ssp_harness.Chaos.run ~scale:2 ~seed:11 ~campaigns:1
      (Ssp_workloads.Suite.corpus ~n:4 ~seed:11)
  in
  Alcotest.(check int)
    "no output divergence" 0
    (Ssp_harness.Chaos.violations report)

(* Cycle-core outputs arrive through the growable buffer in program
   order, full-detail and sampled alike. *)
let outputs_order () =
  let src =
    "int main() { int i; for (i = 0; i < 40; i = i + 1) print_int(i * 7); \
     return 0; }"
  in
  let prog = Ssp_minic.Frontend.compile src in
  let expect = List.init 40 (fun i -> Int64.of_int (i * 7)) in
  let cfg = Ssp_machine.Config.in_order in
  let full = Ssp_sim.Inorder.run cfg prog in
  Alcotest.(check (list int64))
    "inorder program order" expect full.Ssp_sim.Stats.outputs;
  let samp =
    Ssp_sim.Inorder.run
      ~sampling:{ Ssp_sim.Smt.detail_window = 50; ff_window = 100 }
      cfg prog
  in
  Alcotest.(check (list int64))
    "sampled program order" expect samp.Ssp_sim.Stats.outputs;
  let ooo = Ssp_sim.Ooo.run Ssp_machine.Config.out_of_order prog in
  Alcotest.(check (list int64))
    "ooo program order" expect ooo.Ssp_sim.Stats.outputs

(* A memory offset wider than the decoded word's 36-bit immediate field
   takes the wide form, its offset in the immediate pool, so the store
   lands at the wide address in every engine; the fast-forward window (it
   starts after the first instruction) and the profiler both execute it. *)
let wide_offsets () =
  let open Ssp_isa.Op in
  let wide = 1 lsl 35 in
  let f =
    Ssp_ir.Builder.func_of_blocks ~name:"main" ~nparams:0
      [
        ( "entry",
          List.init 20 (fun _ -> Nop)
          @ [
              Movi (40, 0L);
              Movi (41, 7L);
              Store (W8, 41, 40, wide);
              Movi (42, Int64.of_int wide);
              Load (W8, 43, 42, 0);
              Print 43;
              Halt;
            ] );
      ]
  in
  let prog = Ssp_ir.Prog.create ~entry:"main" in
  Ssp_ir.Prog.add_func prog f;
  let cfg = Ssp_machine.Config.in_order in
  Alcotest.(check (list int64))
    "funcsim" [ 7L ] (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.outputs;
  Alcotest.(check (list int64))
    "inorder" [ 7L ] (Ssp_sim.Inorder.run cfg prog).Ssp_sim.Stats.outputs;
  let sampling = { Ssp_sim.Smt.detail_window = 1; ff_window = 200 } in
  let samp = Ssp_sim.Inorder.run ~sampling cfg prog in
  Alcotest.(check (list int64))
    "sampled inorder" [ 7L ] samp.Ssp_sim.Stats.outputs;
  let ooo = Ssp_machine.Config.out_of_order in
  Alcotest.(check (list int64))
    "ooo" [ 7L ] (Ssp_sim.Ooo.run ooo prog).Ssp_sim.Stats.outputs;
  Alcotest.(check (list int64))
    "sampled ooo" [ 7L ]
    (Ssp_sim.Ooo.run ~sampling ooo prog).Ssp_sim.Stats.outputs;
  let p = Ssp_profiling.Collect.collect ~config:cfg prog in
  Alcotest.(check int) "profiled load" 1
    (match Ssp_profiling.Profile.load_stats p (Ssp_ir.Iref.make "main" 0 24) with
    | Some s -> s.Ssp_profiling.Profile.accesses
    | None -> 0)

let suite =
  [
    Alcotest.test_case "sampled accuracy (inorder)" `Slow
      (check_accuracy Ssp_machine.Config.In_order);
    Alcotest.test_case "sampled accuracy (ooo)" `Slow
      (check_accuracy Ssp_machine.Config.Out_of_order);
    Alcotest.test_case "sampled adapted outputs" `Quick sampled_adapted;
    Alcotest.test_case "corpus digest is stable" `Quick corpus_digest;
    Alcotest.test_case "corpus registry" `Quick corpus_registry;
    Alcotest.test_case "corpus differential" `Slow corpus_differential;
    Alcotest.test_case "outputs in program order" `Quick outputs_order;
    Alcotest.test_case "wide memory offsets" `Quick wide_offsets;
  ]
