open Ssp_machine

type row = {
  benchmark : string;
  pipeline : string;
  auto_speedup : float;
  hand_speedup : float;
  retained : float;
}

let run_one setting name pipeline =
  let w = Ssp_workloads.Suite.find name in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.Experiment.scale in
  let cfg = Experiment.config_for setting pipeline in
  let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
  let simulate = Ssp_sim.Simulate.run cfg in
  let base = simulate prog in
  let auto = Ssp.Adapt.run ~config:cfg prog profile in
  let auto_stats = simulate auto.Ssp.Adapt.prog in
  let hand =
    match Ssp.Hand.adapt ~workload:name ~config:cfg prog profile with
    | Some r -> r
    | None -> auto
  in
  let hand_stats = simulate hand.Ssp.Adapt.prog in
  let s x = Experiment.speedup ~baseline:base x in
  let auto_speedup = s auto_stats and hand_speedup = s hand_stats in
  let retained =
    if hand_speedup <= 1.0 then 1.0
    else (auto_speedup -. 1.0) /. (hand_speedup -. 1.0)
  in
  {
    benchmark = name;
    pipeline =
      (match pipeline with
      | Config.In_order -> "in-order"
      | Config.Out_of_order -> "ooo");
    auto_speedup;
    hand_speedup;
    retained;
  }

let run ?(setting = Experiment.reference) () =
  List.concat_map
    (fun name ->
      [
        run_one setting name Config.In_order;
        run_one setting name Config.Out_of_order;
      ])
    [ "mcf"; "health" ]

let print ?setting ppf () =
  let rows = run ?setting () in
  Format.fprintf ppf
    "@[<v>Section 4.5. Automatic vs hand adaptation (speedup over the same \
     baseline)@,@,";
  Render.table ppf
    ~header:[ "benchmark"; "pipeline"; "auto"; "hand"; "gain retained" ]
    (List.map
       (fun r ->
         [
           r.benchmark;
           r.pipeline;
           Render.f2 r.auto_speedup;
           Render.f2 r.hand_speedup;
           Render.pct r.retained;
         ])
       rows);
  Format.fprintf ppf "@]"
