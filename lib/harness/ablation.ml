type row = { variant : string; speedup : float; spawns : int; prefetches : int }

let run ?(setting = Experiment.reference) ?(jobs = 1) () =
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.Experiment.scale in
  let cfg = Experiment.config_for setting Ssp_machine.Config.In_order in
  let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
  let base = Ssp_sim.Inorder.run cfg prog in
  let variant (name, knobs) =
    let result = Ssp.Adapt.run ~knobs ~config:cfg prog profile in
    let s = Ssp_sim.Inorder.run cfg result.Ssp.Adapt.prog in
    {
      variant = name;
      speedup = Experiment.speedup ~baseline:base s;
      spawns = s.Ssp_sim.Stats.spawns;
      prefetches = s.Ssp_sim.Stats.prefetches;
    }
  in
  (* Each variant is an independent adapt+sim over the shared read-only
     program and profile; [Pool.map] keeps the row order fixed. *)
  let tool = Ssp.Adapt.default_knobs in
  let variants =
    [
      ("tool (chaining, combined, computed cond)", tool);
      ("basic SP only", { tool with Ssp.Adapt.force_basic = true });
      ( "condition prediction forced",
        { tool with Ssp.Adapt.force_predict = true } );
      ("no slice combining", { tool with Ssp.Adapt.combining = false });
      ("unroll 4 (hand-style lookahead)", { tool with Ssp.Adapt.unroll = 4 });
    ]
  in
  Ssp_parallel.Pool.with_pool ~jobs (fun pool ->
      Ssp_parallel.Pool.map pool variant variants)

(* Dominator-walk vs max-flow min-cut trigger placement (§3.3): both must
   cut every frequent path to the delinquent load; the comparison is how
   often the main thread executes a trigger instruction. *)
let trigger_placement ?(setting = Experiment.reference) () =
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.Experiment.scale in
  let cfg_m = Experiment.config_for setting Ssp_machine.Config.In_order in
  let profile = Ssp_profiling.Collect.collect ~config:cfg_m prog in
  let regions = Ssp_analysis.Regions.compute prog in
  let callgraph = Ssp_analysis.Callgraph.compute prog in
  let d = Ssp.Delinquent.identify prog profile in
  List.filter_map
    (fun (load : Ssp.Delinquent.load) ->
      match Ssp.Select.choose regions callgraph profile cfg_m load with
      | None -> None
      | Some c ->
        let fn = load.Ssp.Delinquent.iref.Ssp_ir.Iref.fn in
        let cfg_f = Ssp_analysis.Regions.cfg_of regions fn in
        let cut =
          Ssp.Mincut.min_cut cfg_f profile
            ~sink:load.Ssp.Delinquent.iref.Ssp_ir.Iref.blk ()
        in
        let mincut_triggers = Ssp.Mincut.triggers_of_cut fn cut in
        Some
          ( Format.asprintf "%a" Ssp_ir.Iref.pp load.Ssp.Delinquent.iref,
            List.length c.Ssp.Select.triggers,
            Ssp.Mincut.dynamic_cost profile fn c.Ssp.Select.triggers,
            List.length mincut_triggers,
            Ssp.Mincut.dynamic_cost profile fn mincut_triggers ))
    d.Ssp.Delinquent.loads

let print ?setting ?jobs ppf () =
  let rows = run ?setting ?jobs () in
  Format.fprintf ppf
    "@[<v>Ablations on mcf (in-order model, speedup over baseline)@,@,";
  Render.table ppf
    ~header:[ "variant"; "speedup"; "spawns"; "prefetches" ]
    (List.map
       (fun r ->
         [
           r.variant;
           Render.f2 r.speedup;
           string_of_int r.spawns;
           string_of_int r.prefetches;
         ])
       rows);
  Format.fprintf ppf "@,@,Trigger placement: dominator walk vs max-flow min-cut@,@,";
  Render.table ppf
    ~header:
      [ "delinquent load"; "dom triggers"; "dom dyn count"; "cut triggers";
        "cut dyn count" ]
    (List.map
       (fun (l, dt, dd, ct, cd) ->
         [ l; string_of_int dt; string_of_int dd; string_of_int ct;
           string_of_int cd ])
       (trigger_placement ?setting ()));
  Format.fprintf ppf "@]"
