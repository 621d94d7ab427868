(* The closed feedback loop: attribution-report and aggregate codecs,
   the monotone knob lattice (every tuning trajectory reaches a fixed
   point; a fully-redundant load is demoted to skip within three
   rounds), and the end-to-end loop on a real workload — simulate,
   report, tune, republish — preserving the chaos invariant (outputs
   bit-identical to the unadapted program) while strictly shrinking the
   redundant-prefetch count. *)

module Fb = Ssp_feedback.Feedback
module Store = Ssp_store.Store
module T = Ssp_telemetry.Telemetry
module Iref = Ssp_ir.Iref
module Suite = Ssp_workloads.Suite
module Workload = Ssp_workloads.Workload

let iref fn blk ins = Iref.make fn blk ins

let hist samples =
  let h = T.empty_hist_summary () in
  List.fold_left
    (fun (h : T.hist_summary) v ->
      let counts = Array.copy h.T.hs_counts in
      let i = T.hist_index v in
      counts.(i) <- counts.(i) + 1;
      {
        T.hs_n = h.T.hs_n + 1;
        hs_sum = h.T.hs_sum +. v;
        hs_min = (if h.T.hs_n = 0 then v else min h.T.hs_min v);
        hs_max = (if h.T.hs_n = 0 then v else max h.T.hs_max v);
        hs_counts = counts;
      })
    h samples

let load_stat ?(issued = 0) ?(useful = 0) ?(late = 0) ?(early = 0)
    ?(redundant = 0) ?(dropped = 0) ?(unused = 0) ?(accesses = 0) ?(hits = 0)
    ?(leads = []) load =
  {
    Fb.fl_load = load;
    fl_issued = issued;
    fl_useful = useful;
    fl_late = late;
    fl_early_evicted = early;
    fl_redundant = redundant;
    fl_dropped = dropped;
    fl_unused = unused;
    fl_demand_accesses = accesses;
    fl_demand_hits = hits;
    fl_lead_hist = hist leads;
  }

let report ?(prog = Suite.Workload "mcf") ?(scale = 2)
    ?(pipeline = "inorder") ?(version = 0) ?(cycles = 1000) loads =
  {
    Fb.fr_prog = prog;
    fr_scale = scale;
    fr_pipeline = pipeline;
    fr_version = version;
    fr_cycles = cycles;
    fr_loads = loads;
  }

(* ---- codecs ---- *)

let test_report_roundtrip () =
  let rep =
    report ~prog:(Suite.Source "int main() { return 0; }") ~scale:3
      ~pipeline:"ooo" ~version:7 ~cycles:123456
      [
        load_stat (iref "f" 1 2) ~issued:10 ~useful:4 ~late:2 ~early:1
          ~redundant:3 ~dropped:1 ~unused:2 ~accesses:100 ~hits:40
          ~leads:[ 1.; 5.; 120.; 800. ];
        load_stat (iref "g" 0 0) ~redundant:99 ~accesses:99;
      ]
  in
  let blob = Fb.encode_report rep in
  Alcotest.(check bool)
    "sealed as a feedback-report blob" true
    (Store.blob_kind blob = Some Store.kind_feedback_report);
  let rt = Fb.decode_report blob in
  Alcotest.(check bool) "report survives the roundtrip" true (rt = rep);
  Alcotest.(check string)
    "canonical: re-encoding is byte-identical" blob (Fb.encode_report rt);
  (* A blob of another kind is a structured decode error, not a crash. *)
  (match Fb.decode_report (Fb.encode_aggregate Fb.empty_aggregate) with
  | _ -> Alcotest.fail "aggregate blob decoded as a report"
  | exception Ssp_ir.Error.Error _ -> ());
  match Fb.decode_report "garbage" with
  | _ -> Alcotest.fail "garbage decoded as a report"
  | exception Ssp_ir.Error.Error _ -> ()

let test_aggregate_roundtrip_and_staleness () =
  let l = iref "f" 1 2 in
  let fresh c =
    report ~cycles:c [ load_stat l ~issued:80 ~useful:40 ~redundant:20 ]
  in
  let agg = Fb.fold_reports Fb.empty_aggregate [ fresh 10; fresh 20 ] in
  (* A report stamped with another tuning version never merges. *)
  let agg =
    Fb.ingest agg
      (report ~version:9 [ load_stat l ~issued:1000 ~redundant:1000 ])
  in
  Alcotest.(check int) "merged reports" 2 agg.Fb.ag_reports;
  Alcotest.(check int) "stale rejected" 1 agg.Fb.ag_stale;
  let a = Iref.Map.find l agg.Fb.ag_loads in
  (* Scalars decay per merged report; ratios are decay-invariant. *)
  (* attempts = issued + redundant + dropped = 100 per report *)
  Alcotest.(check (float 1e-9)) "accuracy" 0.4 (Fb.accuracy a);
  Alcotest.(check (float 1e-9)) "redundant frac" 0.2 (Fb.redundant_frac a);
  Alcotest.(check (float 1e-6))
    "decayed issues"
    ((80. *. Fb.default_decay) +. 80.)
    a.Fb.al_issued;
  (* The store keeps the published state alone; the fold is recomputed
     from the persisted reports. *)
  let pub =
    Fb.publish agg
      ~overrides:
        (Iref.Map.singleton l
           { Ssp.Adapt.keep_knob with Ssp.Adapt.lk_model = `Basic })
      ~actions:[ { Fb.act_load = l; act_what = "model=basic"; act_why = "" } ]
  in
  let rt = Fb.decode_aggregate (Fb.encode_aggregate pub) in
  Alcotest.(check bool)
    "published state survives the roundtrip" true (rt = pub);
  Alcotest.(check bool)
    "the fold is not stored" true
    (Fb.decode_aggregate (Fb.encode_aggregate agg)
    = { Fb.empty_aggregate with Fb.ag_version = agg.Fb.ag_version })

(* The fleet cells and the local table use one definition of each
   ratio: folded alone, a report reads exactly its run's attribution.
   treeadd.df at scale 3 has a load whose covered uses are all late,
   which is where a second coverage formula used to disagree. *)
let test_fleet_ratios_match_attrib () =
  let config = Ssp_machine.Config.in_order in
  let prog = Workload.program (Suite.find "treeadd.df") ~scale:3 in
  let profile = Ssp_profiling.Collect.collect ~config prog in
  let result = Ssp.Adapt.run ~config prog profile in
  let attrib =
    Ssp_sim.Attrib.create ~prefetch_map:result.Ssp.Adapt.prefetch_map ()
  in
  let stats = Ssp_sim.Simulate.run ~attrib config result.Ssp.Adapt.prog in
  let summary = Ssp_sim.Attrib.summary attrib in
  let rep =
    Fb.report_of_attrib ~prog:(Suite.Workload "treeadd.df") ~scale:3
      ~pipeline:"inorder" ~version:0 ~cycles:stats.Ssp_sim.Stats.cycles summary
  in
  let agg = Fb.fold_reports Fb.empty_aggregate [ rep ] in
  Alcotest.(check bool)
    "some load has late uses" true
    (List.exists
       (fun (l : Ssp_sim.Attrib.load_summary) -> l.ls_late > 0)
       summary.Ssp_sim.Attrib.loads);
  List.iter
    (fun (l : Ssp_sim.Attrib.load_summary) ->
      let a = Iref.Map.find l.ls_load agg.Fb.ag_loads in
      let name what = Iref.to_string l.ls_load ^ " " ^ what in
      Alcotest.(check (float 0.)) (name "coverage") l.ls_coverage
        (Fb.coverage_frac a);
      Alcotest.(check (float 0.)) (name "accuracy") l.ls_accuracy
        (Fb.accuracy a);
      Alcotest.(check (float 0.)) (name "timeliness") l.ls_timeliness
        (Fb.timeliness a))
    summary.Ssp_sim.Attrib.loads

(* What 'sspc explain --feedback' prints: the fold's own counts in the
   header, the fold's ratios in a load's cell, and the published knob
   next to them. *)
let test_explain_view () =
  let l = iref "walk" 2 0 in
  let other = iref "walk" 3 0 in
  let loads =
    [ load_stat l ~issued:50 ~useful:30 ~late:10 ~redundant:50 ~accesses:100
        ~hits:60 ]
  in
  let reports =
    [ report ~cycles:1 loads; report ~cycles:2 loads;
      report ~version:3 ~cycles:3 loads ]
  in
  Alcotest.(check string)
    "nothing published, nothing folded"
    "feedback: no fleet aggregate for this workload/config"
    (Fb.explain_header Fb.empty_aggregate);
  let agg = Fb.fold_reports Fb.empty_aggregate reports in
  Alcotest.(check string)
    "header counts the fold" "feedback: v0  2 reports (1 stale)"
    (Fb.explain_header agg);
  (* Ratios are decay-invariant: 40/70 covered, 30/100 accurate, 30/40
     timely; attempts decay, 100 * 0.9 + 100. *)
  Alcotest.(check (option string))
    "cell shows the fold's ratios"
    (Some "fleet cov 57.1%  acc 30.0%  timely 75.0%  (190 issues)")
    (Fb.explain_cell agg l);
  Alcotest.(check (option string)) "no cell without samples" None
    (Fb.explain_cell agg other);
  let pub =
    Fb.publish agg
      ~overrides:
        (Iref.Map.singleton l
           { Ssp.Adapt.keep_knob with Ssp.Adapt.lk_model = `Basic })
      ~actions:
        [ { Fb.act_load = l; act_what = "model=basic"; act_why = "test" } ]
  in
  let agg = Fb.fold_reports pub reports in
  Alcotest.(check string)
    "after publishing, the old reports are stale"
    "feedback: v1  0 reports (3 stale)  last action v1: walk.2.0: \
     model=basic (test)"
    (Fb.explain_header agg);
  Alcotest.(check (option string))
    "cell shows the published knob"
    (Some "no fresh fleet samples  tuned[model=basic]")
    (Fb.explain_cell agg l)

(* ---- the knob lattice ---- *)

(* Drive plan/publish rounds on a fixed per-round report shape (the
   fleet keeps measuring the same signals) until the plan is empty.
   Returns the rounds taken and the final aggregate. *)
let run_rounds ?(max_rounds = 10) loads =
  let rec go agg n =
    if n >= max_rounds then (n, agg)
    else
      let reports =
        List.init 3 (fun i ->
            report ~version:agg.Fb.ag_version ~cycles:(1000 + i) loads)
      in
      let full = Fb.fold_reports agg reports in
      let overrides, actions = Fb.plan full in
      if actions = [] then (n, full)
      else go (Fb.publish full ~overrides ~actions) (n + 1)
  in
  go Fb.empty_aggregate 0

let test_redundant_load_reaches_skip () =
  let l = iref "walk" 2 0 in
  (* Fully redundant: every prefetch found its line already present. *)
  let rounds, agg =
    run_rounds [ load_stat l ~redundant:1000 ~accesses:1000 ~hits:1000 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "reaches a fixed point in <=3 rounds (took %d)" rounds)
    true (rounds <= 3);
  let k = Iref.Map.find l agg.Fb.ag_overrides in
  Alcotest.(check bool) "demoted to skip" true k.Ssp.Adapt.lk_skip;
  (* Skip is absorbing: one more round is a no-op. *)
  let full =
    Fb.fold_reports agg
      (List.init 3 (fun i ->
           report ~version:agg.Fb.ag_version ~cycles:i
             [ load_stat l ~redundant:1000 ~accesses:1000 ~hits:1000 ]))
  in
  let _, actions = Fb.plan full in
  Alcotest.(check int) "fixed point" 0 (List.length actions)

let test_late_load_promotes () =
  let l = iref "chase" 1 0 in
  let rounds, agg =
    run_rounds
      [ load_stat l ~issued:500 ~useful:100 ~late:400 ~accesses:1000 ]
  in
  let k = Iref.Map.find l agg.Fb.ag_overrides in
  Alcotest.(check bool)
    "promoted to the chaining model" true
    (k.Ssp.Adapt.lk_model = `Chaining);
  Alcotest.(check int) "lookahead widened to the cap" 8 k.Ssp.Adapt.lk_unroll;
  Alcotest.(check bool) "never skipped" false k.Ssp.Adapt.lk_skip;
  Alcotest.(check bool)
    (Printf.sprintf "fixed point within the lattice height (took %d)" rounds)
    true (rounds <= 5)

(* Any signal mix converges: the lattice is finite and every move is
   strictly upward, so repeated planning on stationary signals always
   reaches a fixed point well inside the lattice height. *)
let prop_always_converges =
  QCheck.Test.make ~name:"tuning reaches a fixed point on any signals"
    ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 4)
            (quad (int_range 0 2000) (int_range 0 2000) (int_range 0 2000)
               (int_range 0 2000))))
    (fun loads ->
      let loads =
        List.mapi
          (fun i (issued, useful, late, redundant) ->
            load_stat
              (iref "f" i 0)
              ~issued ~useful ~late ~redundant
              ~accesses:(issued + useful + late + redundant))
          loads
      in
      let rounds, _ = run_rounds ~max_rounds:8 loads in
      rounds < 8)

(* ---- end-to-end on a real workload ---- *)

let with_temp_cache f =
  let dir = Filename.temp_dir "sspc_feedback_test" "" in
  f (Store.Cache.open_dir dir)

let sum_redundant (s : Ssp_sim.Attrib.summary) =
  List.fold_left
    (fun acc (l : Ssp_sim.Attrib.load_summary) -> acc + l.ls_redundant)
    0 s.Ssp_sim.Attrib.loads

(* simulate -> report -> tune -> republish, looping until the tuner
   holds still. The chaos invariant must survive every published
   version, the warm fetch must serve the published bytes, and the
   redundant-prefetch count must strictly drop on this workload (mcf's
   pointer walks prefetch lines that are overwhelmingly already
   resident). *)
let test_e2e_loop () =
  let config = Ssp_machine.Config.in_order in
  let prog = Workload.program (Suite.find "mcf") ~scale:2 in
  let base = Ssp_sim.Inorder.run config prog in
  with_temp_cache @@ fun cache ->
  let simulate result =
    let attrib =
      Ssp_sim.Attrib.create ~prefetch_map:result.Ssp.Adapt.prefetch_map ()
    in
    let stats = Ssp_sim.Inorder.run ~attrib config result.Ssp.Adapt.prog in
    Alcotest.(check (list int64))
      "outputs bit-identical to the unadapted program"
      base.Ssp_sim.Stats.outputs stats.Ssp_sim.Stats.outputs;
    (stats, Ssp_sim.Attrib.summary attrib)
  in
  let r0 = Lazy.force (Fb.adapt ~cache ~config prog).Fb.sv_result in
  let stats0, sum0 = simulate r0 in
  let red0 = sum_redundant sum0 in
  Alcotest.(check bool)
    "untuned mcf issues redundant prefetches" true (red0 > 0);
  (* A round decides on three reports at the published version; the
     simulation is deterministic, so three clients running one artifact
     upload three equal reports. *)
  let mk_reports version (stats : Ssp_sim.Stats.t) summary =
    let rep =
      Fb.report_of_attrib ~prog:(Suite.Workload "mcf") ~scale:2
        ~pipeline:"inorder" ~version ~cycles:stats.Ssp_sim.Stats.cycles
        summary
    in
    [ rep; rep; rep ]
  in
  let rec converge reports version result n =
    if n > 6 then Alcotest.fail "tuner failed to reach a fixed point"
    else
      match Fb.tune_reports ~cache ~config prog reports with
      | None -> (version, result)
      | Some t ->
        let v = t.Fb.td_aggregate.Fb.ag_version in
        Alcotest.(check int) "versions count up" (version + 1) v;
        (* The next request is a hit on the published version and
           serves its bytes — the immutable-artifact contract. *)
        let fetched = Fb.adapt ~cache ~config prog in
        Alcotest.(check bool) "published artifact is warm" true
          (fetched.Fb.sv_status = `Hit);
        Alcotest.(check string)
          "warm fetch is byte-identical to the published artifact"
          (Ssp_ir.Asm.to_string t.Fb.td_result.Ssp.Adapt.prog)
          fetched.Fb.sv_text;
        let stats, summary = simulate t.Fb.td_result in
        converge (mk_reports v stats summary @ reports) v t.Fb.td_result (n + 1)
  in
  let v, tuned = converge (mk_reports 0 stats0 sum0) 0 r0 0 in
  Alcotest.(check bool) "at least one version was published" true (v >= 1);
  (* Fixed point is stable: tuning the tuned artifact's own reports
     again still does nothing. *)
  let stats_t, sum_t = simulate tuned in
  Alcotest.(check bool)
    "re-tuning on the fixed point is a no-op" true
    (Fb.tune_reports ~cache ~config prog (mk_reports v stats_t sum_t) = None);
  let red_t = sum_redundant sum_t in
  Alcotest.(check bool)
    (Printf.sprintf "redundant prefetches strictly decrease (%d -> %d)" red0
       red_t)
    true
    (red_t < red0)

(* Offline store walking must reproduce the daemon's rounds: persist the
   reports the way the server does, run [tune_store] on the directory,
   and the published artifact must match a direct [tune_reports] on a
   separate store byte for byte — the determinism contract behind the
   CI byte-compare. *)
let test_tune_store_deterministic () =
  let config = Ssp_machine.Config.in_order in
  let prog = Workload.program (Suite.find "mcf") ~scale:2 in
  let r0 = Lazy.force (Fb.adapt ~config prog).Fb.sv_result in
  let attrib =
    Ssp_sim.Attrib.create ~prefetch_map:r0.Ssp.Adapt.prefetch_map ()
  in
  let stats = Ssp_sim.Inorder.run ~attrib config r0.Ssp.Adapt.prog in
  let reports =
    List.init 3 (fun i ->
        Fb.report_of_attrib ~prog:(Suite.Workload "mcf") ~scale:2
          ~pipeline:"inorder" ~version:0
          ~cycles:(stats.Ssp_sim.Stats.cycles + i)
          (Ssp_sim.Attrib.summary attrib))
  in
  let direct =
    with_temp_cache @@ fun cache ->
    match Fb.tune_reports ~cache ~config prog reports with
    | Some t ->
      Format.asprintf "%a@." Ssp_ir.Asm.print t.Fb.td_result.Ssp.Adapt.prog
    | None -> Alcotest.fail "direct round made no plan"
  in
  with_temp_cache @@ fun cache ->
  List.iter
    (fun rep ->
      let blob = Fb.encode_report rep in
      Store.Cache.put cache (Fb.report_store_key blob) blob)
    reports;
  match Fb.tune_store cache with
  | [ st ] ->
    Alcotest.(check int) "reports found" 3 st.Fb.st_reports;
    (match st.Fb.st_tuned with
    | Some t ->
      Alcotest.(check string)
        "offline walk publishes byte-identical artifact" direct
        (Format.asprintf "%a@." Ssp_ir.Asm.print
           t.Fb.td_result.Ssp.Adapt.prog)
    | None -> Alcotest.fail "store walk made no plan")
  | other ->
    Alcotest.failf "expected one tuned workload, got %d" (List.length other)

(* The store scan decides each entry's kind from its envelope header and
   reads whole only the feedback reports: the profile, adapted and
   aggregate blobs are skipped, and a report truncated mid-payload is
   read and rejected. *)
let test_scan_finds_only_reports () =
  with_temp_cache @@ fun cache ->
  let config = Ssp_machine.Config.in_order in
  let prog = Workload.program (Suite.find "mcf") ~scale:Suite.test_scale in
  let sv = Fb.adapt ~cache ~config prog in
  Store.Cache.put cache
    (Fb.aggregate_key ~config prog sv.Fb.sv_profile)
    (Fb.encode_aggregate Fb.empty_aggregate);
  let valid = report ~cycles:7 [ load_stat (iref "f" 1 2) ~issued:3 ] in
  let blob = Fb.encode_report valid in
  Store.Cache.put cache (Fb.report_store_key blob) blob;
  let torn = Fb.encode_report (report ~cycles:8 []) in
  Store.Cache.put cache (String.make 32 't')
    (String.sub torn 0 (String.length torn / 2));
  Alcotest.(check int) "five entries" 5 (Store.Cache.entry_count cache);
  match Fb.reports_in_store cache with
  | [ r ] -> Alcotest.(check bool) "the valid report" true (r = valid)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* A report naming no known pipeline is the library's structured error
   when a store walk reaches it, not an in-order tuning round. *)
let test_tune_store_unknown_pipeline () =
  with_temp_cache @@ fun cache ->
  let blob = Fb.encode_report (report ~pipeline:"oo" []) in
  Store.Cache.put cache (Fb.report_store_key blob) blob;
  match Fb.tune_store cache with
  | _ -> Alcotest.fail "a report for pipeline oo was tuned"
  | exception Ssp_ir.Error.Error e ->
    Alcotest.(check string) "feedback error" "feedback" e.Ssp_ir.Error.pass

(* So is a report naming no known workload. *)
let test_tune_store_unknown_workload () =
  with_temp_cache @@ fun cache ->
  let blob =
    Fb.encode_report (report ~prog:(Suite.Workload "no-such-workload") [])
  in
  Store.Cache.put cache (Fb.report_store_key blob) blob;
  match Fb.tune_store cache with
  | _ -> Alcotest.fail "a report for an unknown workload was tuned"
  | exception Ssp_ir.Error.Error e ->
    Alcotest.(check string) "feedback error" "feedback" e.Ssp_ir.Error.pass

(* The ledger reads a shard's artifacts through the program-form keys
   ([Store.profile_key], [Store.adapted_key], [Fb.aggregate_key]), while
   the pipeline names them from hashes it computes once per request. On
   a kernel and on a generated program both name the same entries,
   untuned and after a round publishes v1. *)
let test_keys_are_the_program_forms () =
  let config = Ssp_machine.Config.in_order in
  List.iter
    (fun (w : Workload.t) ->
      with_temp_cache @@ fun cache ->
      let name = w.Workload.name in
      let scale = Suite.test_scale in
      let prog = Workload.program w ~scale in
      let sv = Fb.adapt ~cache ~config prog in
      let profile = sv.Fb.sv_profile in
      Alcotest.(check (list string))
        (name ^ ": untuned keys")
        [
          Store.profile_key ~config prog; Store.adapted_key ~config prog profile;
        ]
        sv.Fb.sv_keys;
      (* Every prefetch of one load redundant: three reports move the
         plan. *)
      let id = Suite.Workload name in
      let rep =
        report ~prog:id ~scale [ load_stat (iref "main" 0 0) ~redundant:100 ]
      in
      match Fb.tune_reports ~cache ~config prog [ rep; rep; rep ] with
      | None -> Alcotest.failf "%s: the round published nothing" name
      | Some t ->
        let pub = t.Fb.td_aggregate in
        Alcotest.(check int) (name ^ ": published v1") 1 pub.Fb.ag_version;
        let tuned = Fb.adapt ~cache ~config prog in
        Alcotest.(check string)
          (name ^ ": v1 is served from the store")
          "hit"
          (Fb.status_string tuned.Fb.sv_status);
        let overrides = Ssp.Adapt.overrides_string pub.Fb.ag_overrides in
        Alcotest.(check (list string))
          (name ^ ": v1 keys")
          [
            Store.profile_key ~config prog;
            Store.adapted_key ~tuning:(1, overrides) ~config prog profile;
          ]
          tuned.Fb.sv_keys;
        let fold =
          Fb.fold_workload cache
            ~key:(Fb.aggregate_key ~config prog profile)
            (id, scale, "inorder")
        in
        Alcotest.(check int)
          (name ^ ": aggregate_key finds v1")
          1 fold.Fb.ag_version;
        Alcotest.(check string)
          (name ^ ": and its overrides")
          overrides
          (Ssp.Adapt.overrides_string fold.Fb.ag_overrides))
    [ Suite.find "mst"; List.hd (Suite.corpus ~n:1 ~seed:5) ]

let suite =
  [
    Alcotest.test_case "report codec roundtrip + kind checks" `Quick
      test_report_roundtrip;
    Alcotest.test_case "aggregate: decayed merge, staleness, roundtrip" `Quick
      test_aggregate_roundtrip_and_staleness;
    Alcotest.test_case "fleet ratios equal the run's attribution" `Quick
      test_fleet_ratios_match_attrib;
    Alcotest.test_case "explain view: fold header counts and cells" `Quick
      test_explain_view;
    Alcotest.test_case "lattice: fully-redundant load skipped in <=3 rounds"
      `Quick test_redundant_load_reaches_skip;
    Alcotest.test_case "lattice: chronically-late load promotes, never skips"
      `Quick test_late_load_promotes;
    QCheck_alcotest.to_alcotest prop_always_converges;
    Alcotest.test_case "e2e: sim -> report -> tune -> republish" `Slow
      test_e2e_loop;
    Alcotest.test_case "offline tune_store matches direct round" `Slow
      test_tune_store_deterministic;
    Alcotest.test_case "store scan returns only the valid report" `Quick
      test_scan_finds_only_reports;
    Alcotest.test_case "tune_store: unknown pipeline is a structured error"
      `Quick test_tune_store_unknown_pipeline;
    Alcotest.test_case "tune_store: unknown workload is a structured error"
      `Quick test_tune_store_unknown_workload;
    Alcotest.test_case "adapt's keys are the program-form keys" `Quick
      test_keys_are_the_program_forms;
  ]
