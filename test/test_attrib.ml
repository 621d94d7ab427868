(* Tests for prefetch-lifecycle attribution (Ssp_sim.Attrib), the
   saturation counters it feeds (dropped prefetches, denied spawns,
   watchdog kills), the Chrome trace-event exporter, and the guarantee
   that attribution is passive: attaching it changes neither cycle counts
   nor program outputs. *)

module T = Ssp_telemetry.Telemetry
module Attrib = Ssp_sim.Attrib
module Config = Ssp_machine.Config

let small_prog () = Ssp_workloads.(Workload.program (Suite.find "mcf") ~scale:1)
let base_cfg = Config.scale_caches Config.in_order 64

(* Fill buffer of one entry, two contexts, and a watchdog tight enough to
   reclaim threads right after their first prefetches: every refusal path
   (dropped fill, denied spawn, watchdog kill) must fire. *)
let saturated_cfg =
  {
    base_cfg with
    Config.fill_buffer_entries = 1;
    n_contexts = 2;
    spec_watchdog = 20;
  }

let adapt cfg =
  let prog = small_prog () in
  let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
  (prog, Ssp.Adapt.run ~config:cfg prog profile)

let attributed_sim cfg (result : Ssp.Adapt.result) =
  let attrib = Attrib.create ~prefetch_map:result.Ssp.Adapt.prefetch_map () in
  let stats = Ssp_sim.Inorder.run ~attrib cfg result.Ssp.Adapt.prog in
  (stats, Attrib.summary attrib)

let sum_loads f (s : Attrib.summary) =
  List.fold_left (fun acc l -> acc + f l) 0 s.Attrib.loads

(* ---- classification sanity on an unconstrained machine ---- *)

let test_useful_nonzero () =
  let _, result = adapt base_cfg in
  Alcotest.(check bool) "prefetch map nonempty" false
    (Ssp_ir.Iref.Map.is_empty result.Ssp.Adapt.prefetch_map);
  let stats, s = attributed_sim base_cfg result in
  Alcotest.(check bool) "some prefetches issued" true
    (sum_loads (fun l -> l.Attrib.ls_issued) s > 0);
  Alcotest.(check bool) "some prefetches useful" true
    (sum_loads (fun l -> l.Attrib.ls_useful) s > 0);
  Alcotest.(check bool) "threads spawned" true (s.Attrib.threads.Attrib.th_spawns > 0);
  Alcotest.(check int) "all spawns end" s.Attrib.threads.Attrib.th_spawns
    s.Attrib.threads.Attrib.th_ended;
  (* every load's classes sum to its issues *)
  List.iter
    (fun (l : Attrib.load_summary) ->
      Alcotest.(check int)
        ("classes partition issues for " ^ Ssp_ir.Iref.to_string l.Attrib.ls_load)
        l.Attrib.ls_issued
        (l.Attrib.ls_useful + l.Attrib.ls_late + l.Attrib.ls_early_evicted
       + l.Attrib.ls_unused))
    s.Attrib.loads;
  (* The explain table joined from this run renders as JSON that parses. *)
  ignore
    (Test_telemetry.parse_json
       (Ssp.Explain.to_json (Ssp.Explain.build ~result ~stats ~attrib:s ())))

(* ---- saturation: dropped / denied / watchdog counters fire ---- *)

let test_saturated_counters =
  Test_telemetry.scoped @@ fun () ->
  (* Adapt with telemetry off so only the simulation feeds the counters.
     treeadd.bf keeps many independent lfetches in flight, so a one-entry
     fill buffer is guaranteed to refuse some of them. *)
  T.set_enabled false;
  let prog =
    Ssp_workloads.(Workload.program (Suite.find "treeadd.bf") ~scale:1)
  in
  let profile = Ssp_profiling.Collect.collect ~config:saturated_cfg prog in
  let result = Ssp.Adapt.run ~config:saturated_cfg prog profile in
  T.set_enabled true;
  let _, s = attributed_sim saturated_cfg result in
  let counter name =
    match List.assoc_opt name (T.report ()).T.r_counters with
    | Some v -> v
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check bool) "fill buffer dropped prefetches" true
    (counter "sim.fill.dropped_prefetch" > 0);
  Alcotest.(check bool) "spawns denied" true (counter "sim.spawn_denied" > 0);
  Alcotest.(check bool) "watchdog kills" true
    (counter "sim.watchdog_kills" > 0);
  (* the same events reach the attribution summary *)
  let dropped = sum_loads (fun l -> l.Attrib.ls_dropped) s in
  Alcotest.(check bool) "dropped classified" true (dropped > 0);
  Alcotest.(check int) "pf.dropped counter matches summary" dropped
    (counter "sim.pf.dropped");
  Alcotest.(check int) "spawn_denied matches summary"
    s.Attrib.threads.Attrib.th_denied
    (counter "sim.spawn_denied");
  Alcotest.(check int) "watchdog matches summary"
    s.Attrib.threads.Attrib.th_watchdog_kills
    (counter "sim.watchdog_kills");
  Alcotest.(check bool) "per-site denials recorded" true
    (List.exists (fun (x : Attrib.site_summary) -> x.Attrib.ss_denied > 0)
       s.Attrib.sites)

(* ---- Chrome trace-event export ---- *)

let test_trace_roundtrip =
  Test_telemetry.scoped @@ fun () ->
  T.set_events true;
  let _, result = adapt base_cfg in
  ignore (attributed_sim base_cfg result);
  let j = Test_telemetry.parse_json (T.trace_events_json ()) in
  let events =
    match Test_telemetry.member "traceEvents" j with
    | Test_telemetry.Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  Alcotest.(check bool) "has events" true (List.length events > 2);
  let str m e =
    match Test_telemetry.member m e with
    | Test_telemetry.Str s -> s
    | _ -> Alcotest.fail ("field " ^ m ^ " not a string")
  in
  (* every event is well-formed: name, ph, pid, tid; X events have ts+dur *)
  List.iter
    (fun e ->
      let ph = str "ph" e in
      Alcotest.(check bool) "known phase" true
        (List.mem ph [ "X"; "i"; "M" ]);
      ignore (str "name" e);
      ignore (Test_telemetry.num (Test_telemetry.member "pid" e));
      ignore (Test_telemetry.num (Test_telemetry.member "tid" e));
      if ph = "X" then begin
        Alcotest.(check bool) "ts >= 0" true
          (Test_telemetry.num (Test_telemetry.member "ts" e) >= 0.);
        Alcotest.(check bool) "dur >= 0" true
          (Test_telemetry.num (Test_telemetry.member "dur" e) >= 0.)
      end)
    events;
  (* both processes are named and both appear in events *)
  let metas = List.filter (fun e -> str "ph" e = "M") events in
  Alcotest.(check int) "two process_name records" 2 (List.length metas);
  let pid_of e = int_of_float (Test_telemetry.num (Test_telemetry.member "pid" e)) in
  let pids = List.map pid_of metas in
  Alcotest.(check bool) "passes + sim pids" true
    (List.mem 0 pids && List.mem 1 pids);
  (* pass spans land on pid 0, speculative-thread timelines on pid 1 *)
  Alcotest.(check bool) "pass events" true
    (List.exists (fun e -> str "ph" e = "X" && pid_of e = 0) events);
  let spec =
    List.filter
      (fun e ->
        str "ph" e = "X" && pid_of e = 1
        && str "cat" e = "spec_thread")
      events
  in
  Alcotest.(check bool) "spec-thread timeline events" true (spec <> []);
  List.iter
    (fun e ->
      match Test_telemetry.member "args" e with
      | Test_telemetry.Obj fields ->
        Alcotest.(check bool) "target arg" true (List.mem_assoc "target" fields)
      | _ -> Alcotest.fail "spec event args")
    spec

(* ---- attribution and event recording are passive ---- *)

let test_attrib_inert () =
  T.reset ();
  T.set_enabled false;
  let prog, result = adapt base_cfg in
  let plain_base = Ssp_sim.Inorder.run base_cfg prog in
  let plain = Ssp_sim.Inorder.run base_cfg result.Ssp.Adapt.prog in
  (* attribution + telemetry + events all on *)
  T.set_enabled true;
  T.set_events true;
  let instrumented, s = attributed_sim base_cfg result in
  let instrumented_base = Ssp_sim.Inorder.run base_cfg prog in
  T.set_events false;
  T.set_enabled false;
  T.reset ();
  Alcotest.(check int) "adapted cycles unchanged"
    plain.Ssp_sim.Stats.cycles instrumented.Ssp_sim.Stats.cycles;
  Alcotest.(check int) "baseline cycles unchanged"
    plain_base.Ssp_sim.Stats.cycles instrumented_base.Ssp_sim.Stats.cycles;
  Alcotest.(check bool) "outputs unchanged" true
    (plain.Ssp_sim.Stats.outputs = instrumented.Ssp_sim.Stats.outputs);
  Alcotest.(check bool) "outputs match baseline" true
    (plain_base.Ssp_sim.Stats.outputs = plain.Ssp_sim.Stats.outputs);
  Alcotest.(check bool) "attribution recorded meanwhile" true
    (sum_loads (fun l -> l.Attrib.ls_issued) s > 0)

let suite =
  [
    Alcotest.test_case "classification on mcf" `Slow test_useful_nonzero;
    Alcotest.test_case "saturation counters" `Slow test_saturated_counters;
    Alcotest.test_case "trace-event roundtrip" `Slow test_trace_roundtrip;
    Alcotest.test_case "attribution is inert" `Slow test_attrib_inert;
  ]
