(* Tests for the fault-injection engine (Ssp_fault): decision
   determinism, limits and counts, spec parsing; the per-load degradation
   ladder in Adapt.run (a load whose slicing fails is skipped with a
   diagnostic rather than aborting adaptation); the simulator watchdog
   reclaiming a runaway chained slice; the chaos invariance harness; and
   sspc's exit-code contract for bad inputs. *)

open Ssp_isa
open Ssp_ir
module F = Ssp_fault.Fault
module T = Ssp_telemetry.Telemetry
module Config = Ssp_machine.Config

let cfg = Config.scale_caches Config.in_order 64

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- engine ---- *)

let test_no_plan_inert () =
  let s = F.site "test.inert" in
  Alcotest.(check bool) "no plan installed" false (F.active ());
  Alcotest.(check bool) "keyed query never fires" false (F.fire ~key:1 s);
  Alcotest.(check bool) "unkeyed query never fires" false (F.fire s)

(* Keyed decisions depend only on (seed, site, key): querying the same
   keys in reverse order under a fresh plan with the same seed must give
   the same per-key answers, and a different seed a different pattern. *)
let test_keyed_determinism () =
  let s = F.site "test.keyed" in
  let keys = List.init 200 Fun.id in
  let decisions seed keys =
    let plan = F.make ~seed [ ("test.keyed", F.spec 0.5) ] in
    F.with_plan plan (fun () -> List.map (fun k -> F.fire ~key:k s) keys)
  in
  let fwd = decisions 7 keys in
  let bwd = decisions 7 (List.rev keys) in
  Alcotest.(check (list bool)) "order-independent" fwd (List.rev bwd);
  Alcotest.(check bool) "some keys fire" true (List.mem true fwd);
  Alcotest.(check bool) "some keys don't" true (List.mem false fwd);
  Alcotest.(check bool) "seed changes the pattern" true (fwd <> decisions 8 keys)

let test_limit_and_counts () =
  let s = F.site "test.limit" in
  let plan = F.make ~seed:3 [ ("test.limit", F.spec ~limit:3 1.0) ] in
  let fired =
    F.with_plan plan (fun () ->
        List.init 10 (fun k -> F.fire ~key:k s)
        |> List.filter Fun.id |> List.length)
  in
  Alcotest.(check int) "limit caps fires" 3 fired;
  match F.counts plan with
  | [ c ] ->
    Alcotest.(check string) "count names the site" "test.limit" c.F.site;
    Alcotest.(check int) "queried" 10 c.F.queried;
    Alcotest.(check int) "fired" 3 c.F.fired;
    Alcotest.(check int) "fired_total" 3 (F.fired_total plan)
  | _ -> Alcotest.fail "expected exactly one count entry"

(* Every injection is also a telemetry event, [fault.<site>]. *)
let test_fire_telemetry_counter =
  Test_telemetry.scoped @@ fun () ->
  let s = F.site "test.counter" in
  let plan = F.make ~seed:1 [ ("test.counter", F.spec 1.0) ] in
  F.with_plan plan (fun () -> ignore (F.fire ~key:0 s));
  Alcotest.(check int)
    "fault.<site> counter" 1
    (List.assoc "fault.test.counter" (T.report ()).T.r_counters)

let test_parse_specs () =
  (match F.parse_specs "sim.spec.kill=0.5, adapt.codegen.refuse=1.0:2" with
  | Ok [ (a, sa); (b, sb) ] ->
    Alcotest.(check string) "first site" "sim.spec.kill" a;
    Alcotest.(check (float 1e-9)) "prob" 0.5 sa.F.prob;
    Alcotest.(check bool) "no limit" true (sa.F.limit = None);
    Alcotest.(check string) "second site" "adapt.codegen.refuse" b;
    Alcotest.(check bool) "limit parsed" true (sb.F.limit = Some 2)
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e);
  let bad s =
    match F.parse_specs s with
    | Ok _ -> Alcotest.fail ("accepted bad spec " ^ s)
    | Error _ -> ()
  in
  bad "nosite";
  bad "a=1.5";
  bad "a=x";
  bad "=0.5"

(* ---- the degradation ladder ---- *)

let adapt_under plan =
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:1 in
  let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
  let result =
    F.with_plan plan (fun () -> Ssp.Adapt.run ~config:cfg prog profile)
  in
  (prog, result)

let skip_plan () = F.make ~seed:11 [ ("adapt.slice.oversized", F.spec 1.0) ]

(* The acceptance-criterion test: when slicing fails on every rung, each
   load is skipped with a diagnostic — adaptation completes, emits no
   slices, and leaves the binary untouched. *)
let test_ladder_skips_load () =
  let prog, result = adapt_under (skip_plan ()) in
  Alcotest.(check int)
    "no slices survive" 0
    (List.length result.Ssp.Adapt.choices);
  let diags = result.Ssp.Adapt.report.Ssp.Report.diagnostics in
  let skips =
    List.filter (fun (d : Ssp.Report.diag) -> d.Ssp.Report.action = "skip") diags
  in
  Alcotest.(check bool) "every failed load leaves a skip diagnostic" true
    (skips <> []);
  List.iter
    (fun (d : Ssp.Report.diag) ->
      Alcotest.(check string) "failing stage" "slicer" d.Ssp.Report.stage;
      Alcotest.(check bool) "diagnostic carries the error" true
        (contains d.Ssp.Report.detail "oversized"))
    skips;
  (* The ladder walked interprocedural -> intraprocedural -> basic before
     giving up, so each skip is preceded by two degrade events. *)
  Alcotest.(check int)
    "two degradations per skipped load"
    (2 * List.length skips)
    (List.length
       (List.filter
          (fun (d : Ssp.Report.diag) ->
            contains d.Ssp.Report.action "degrade")
          diags));
  Alcotest.(check string) "binary left untouched"
    (Format.asprintf "%a" Asm.print prog)
    (Format.asprintf "%a" Asm.print result.Ssp.Adapt.prog)

(* A chaining refusal must not kill the load: it degrades to the basic
   model and the slice still ships — with unchanged program semantics. *)
let test_ladder_degrades_to_basic () =
  let plan =
    F.make ~seed:5
      [
        ("adapt.chaining.refuse", F.spec 1.0);
        ("adapt.interproc.refuse", F.spec 1.0);
      ]
  in
  let prog, result = adapt_under plan in
  Alcotest.(check bool) "slices still emitted" true
    (result.Ssp.Adapt.choices <> []);
  List.iter
    (fun (c : Ssp.Select.choice) ->
      Alcotest.(check bool) "all surviving slices use the basic model" true
        (c.Ssp.Select.model = Ssp.Select.Basic))
    result.Ssp.Adapt.choices;
  Alcotest.(check bool) "degradations recorded" true
    (List.exists
       (fun (d : Ssp.Report.diag) -> contains d.Ssp.Report.action "degrade")
       result.Ssp.Adapt.report.Ssp.Report.diagnostics);
  Alcotest.(check (list int64)) "outputs preserved"
    (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.outputs
    (Ssp_sim.Funcsim.run ~spawning:true result.Ssp.Adapt.prog)
      .Ssp_sim.Funcsim.outputs

(* ---- watchdog reclaim of a runaway chained slice ---- *)

(* Hand-built runaway: "helper" loops forever and chain-spawns itself;
   main does real work for a while, so the watchdog has time to fire.
   The kills must be counted and main's outputs must be unaffected. *)
let runaway_program () =
  let open Op in
  let c = 40 and v = 41 and a = 42 in
  let main =
    Builder.func_of_blocks ~name:"main" ~nparams:0
      [
        ( "entry",
          [
            Movi (v, 1L);
            Print v;
            Movi (c, 2000L);
            Spawn ("helper", "hloop");
            Br "loop";
          ] );
        ("loop", [ Alui (Sub, c, c, 1L); Brnz (c, "loop"); Br "done" ]);
        ("done", [ Movi (v, 2L); Print v; Halt ]);
      ]
  in
  let helper =
    Builder.func_of_blocks ~name:"helper" ~nparams:0
      [
        ("entry", [ Movi (a, 1L); Br "hloop" ]);
        ( "hloop",
          [ Alui (Add, a, a, 1L); Spawn ("helper", "hloop"); Br "hloop" ] );
      ]
  in
  let p = Prog.create ~entry:"main" in
  Prog.add_func p main;
  Prog.add_func p helper;
  p

let test_watchdog_kills_runaway =
  Test_telemetry.scoped @@ fun () ->
  let p = runaway_program () in
  let wd_cfg = { cfg with Config.spec_watchdog = 50 } in
  let stats = Ssp_sim.Inorder.run wd_cfg p in
  Alcotest.(check (list int64))
    "main outputs unchanged" [ 1L; 2L ] stats.Ssp_sim.Stats.outputs;
  Alcotest.(check (list int64))
    "funcsim agrees" [ 1L; 2L ]
    (Ssp_sim.Funcsim.run p).Ssp_sim.Funcsim.outputs;
  Alcotest.(check bool) "watchdog kills counted" true
    (List.assoc "sim.watchdog_kills" (T.report ()).T.r_counters > 0)

(* ---- chaos harness smoke ---- *)

let test_chaos_smoke () =
  let r =
    Ssp_harness.Chaos.run ~seed:7 ~campaigns:2 ~scale:1
      [ Ssp_workloads.Suite.find "em3d" ]
  in
  Alcotest.(check int) "no safety violations" 0
    (Ssp_harness.Chaos.violations r);
  Alcotest.(check bool) "some fault sites fired" true
    (Ssp_harness.Chaos.fired_sites r <> []);
  Alcotest.(check bool) "json renders" true
    (contains (Ssp_harness.Chaos.to_json r) "\"violations\":0")

(* A tab or carriage return in a workload path or a fault-site name is
   escaped, so the report stays valid JSON. *)
let test_chaos_json_escapes_control_bytes () =
  let module C = Ssp_harness.Chaos in
  let campaign =
    {
      C.c_seed = 1;
      violations = [ "out\r\n" ];
      faults = [ { F.site = "sim\tsite"; queried = 2; fired = 1 } ];
      degraded = 0;
      skipped = 0;
      slices = 0;
    }
  in
  let workload = { C.w_name = "dir\twith\rtab.mc"; campaigns = [ campaign ] } in
  let json =
    C.to_json { C.seed = 1; n_campaigns = 1; specs = []; workloads = [ workload ] }
  in
  Alcotest.(check bool) "no raw control byte" false
    (String.exists (fun c -> Char.code c < 0x20) json);
  Alcotest.(check bool) "name escaped" true
    (contains json "\"dir\\twith\\rtab.mc\"");
  ignore (Test_telemetry.parse_json json)

(* ---- sspc exit-code contract ---- *)

(* The test binary lives in _build/default/test/; sspc is its sibling
   under bin/ (declared as a dune dep of this test). *)
let sspc =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/sspc.exe"

let test_cli_exit_codes () =
  let code args = Sys.command (sspc ^ " " ^ args ^ " >/dev/null 2>&1") in
  Alcotest.(check int) "missing input file" 2
    (code "compile /nonexistent-sspc-input.mc");
  Alcotest.(check int) "bad fault spec" 2
    (code "chaos --faults sim.spec.kill=2.5");
  Alcotest.(check int) "unknown workload" 2 (code "chaos no-such-workload");
  Alcotest.(check int) "unknown pipeline" 2
    (code "sim health --scale 1 --pipeline oo")

(* A PROGRAM that names no workload is read as a mini-C file, so an
   unknown name is a missing file: exit code 2 on every subcommand. *)
let test_cli_unknown_program () =
  List.iter
    (fun cmd ->
      Alcotest.(check int)
        (cmd ^ " of an unknown name") 2
        (Sys.command (sspc ^ " " ^ cmd ^ " no-such-workload >/dev/null 2>&1")))
    [ "compile"; "adapt"; "sim"; "explain"; "stats"; "client adapt";
      "client sim" ]

let suite =
  [
    Alcotest.test_case "engine: inert without a plan" `Quick test_no_plan_inert;
    Alcotest.test_case "engine: keyed decisions deterministic" `Quick
      test_keyed_determinism;
    Alcotest.test_case "engine: limit and counts" `Quick test_limit_and_counts;
    Alcotest.test_case "engine: telemetry counter per fire" `Quick
      test_fire_telemetry_counter;
    Alcotest.test_case "engine: parse_specs" `Quick test_parse_specs;
    Alcotest.test_case "ladder: failed slicing skips load with diagnostic"
      `Quick test_ladder_skips_load;
    Alcotest.test_case "ladder: chaining refusal degrades to basic" `Quick
      test_ladder_degrades_to_basic;
    Alcotest.test_case "watchdog: runaway chained slice reclaimed" `Quick
      test_watchdog_kills_runaway;
    Alcotest.test_case "chaos: em3d smoke campaign" `Slow test_chaos_smoke;
    Alcotest.test_case "chaos: JSON escapes control bytes" `Quick
      test_chaos_json_escapes_control_bytes;
    Alcotest.test_case "sspc: exit code 2 on bad input" `Quick
      test_cli_exit_codes;
    Alcotest.test_case "sspc: unknown program name is exit code 2" `Quick
      test_cli_unknown_program;
  ]
