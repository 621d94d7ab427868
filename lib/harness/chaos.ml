(* Chaos campaigns: the speculative-safety invariance checker.

   The paper's correctness story is that speculative threads only
   prefetch — they never commit architectural state — so *any* fault in
   the speculative machinery must leave main-thread outputs bit-identical
   to a fault-free, unadapted run.  A campaign installs a seeded fault
   plan over every registered injection point (adaptation pipeline and
   simulator alike), adapts and simulates each workload under it, and
   compares the architectural outputs against two fault-free references:
   the unadapted cycle simulation and the functional simulator. *)

open Ssp_machine
module F = Ssp_fault.Fault
module Json = Ssp_telemetry.Json

(* Probabilities are tuned so a default 8-campaign sweep exercises every
   site: the adapt sites are queried once or twice per delinquent load
   (hence high probabilities), the sim sites once per instruction/access
   event (hence low ones). *)
let default_specs =
  [
    ("adapt.profile.stale", F.spec 0.10);
    ("adapt.slicer.budget", F.spec 0.15);
    ("adapt.slice.oversized", F.spec 0.15);
    ("adapt.interproc.refuse", F.spec 0.30);
    ("adapt.chaining.refuse", F.spec 0.30);
    ("adapt.codegen.refuse", F.spec 0.10);
    ("sim.spec.kill", F.spec 0.001);
    ("sim.spawn.deny", F.spec 0.05);
    ("sim.spawn.delay", F.spec 0.05);
    ("sim.context.starve", F.spec 0.05);
    ("sim.chain.break", F.spec 0.03);
    ("sim.prefetch.drop", F.spec 0.03);
    ("sim.fill.exhaust", F.spec 0.01);
  ]

type campaign = {
  c_seed : int;  (* derived plan seed *)
  violations : string list;  (* divergence descriptions; empty = safe *)
  faults : F.count list;  (* per-site query/fire totals *)
  degraded : int;  (* ladder events that retried a lower rung *)
  skipped : int;  (* loads dropped entirely *)
  slices : int;  (* slices that still made it into the binary *)
}

type workload_result = { w_name : string; campaigns : campaign list }

type report = {
  seed : int;
  n_campaigns : int;
  specs : (string * F.spec) list;
  workloads : workload_result list;
}

let violations r =
  List.fold_left
    (fun acc w ->
      List.fold_left
        (fun acc c -> acc + List.length c.violations)
        acc w.campaigns)
    0 r.workloads

(* Sites that actually fired at least once, across the whole sweep. *)
let fired_sites r =
  List.fold_left
    (fun acc w ->
      List.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (f : F.count) ->
              if f.F.fired > 0 && not (List.mem f.F.site acc) then
                f.F.site :: acc
              else acc)
            acc c.faults)
        acc w.campaigns)
    [] r.workloads
  |> List.sort compare

(* (total degradations, total skipped loads) *)
let ladder_events r =
  List.fold_left
    (fun (d, s) w ->
      List.fold_left
        (fun (d, s) c -> (d + c.degraded, s + c.skipped))
        (d, s) w.campaigns)
    (0, 0) r.workloads

(* One campaign of one workload: adapt and simulate under the plan,
   then compare outputs against the fault-free references. *)
let run_campaign ~jobs ~cfg ~prog ~profile ~ref_outputs ~funcsim_ref plan =
  F.with_plan plan (fun () ->
      let result = Ssp.Adapt.run ~jobs ~config:cfg prog profile in
      let stats = Ssp_sim.Inorder.run cfg result.Ssp.Adapt.prog in
      let fsim =
        Ssp_sim.Funcsim.run ~spawning:true result.Ssp.Adapt.prog
      in
      let violations =
        (if stats.Ssp_sim.Stats.outputs <> ref_outputs then
           [ "cycle-simulated outputs diverge from fault-free unadapted run" ]
         else [])
        @
        if fsim.Ssp_sim.Funcsim.outputs <> funcsim_ref then
          [ "funcsim outputs of adapted binary diverge from reference" ]
        else []
      in
      let degraded, skipped =
        List.fold_left
          (fun (d, s) (diag : Ssp.Report.diag) ->
            if String.length diag.Ssp.Report.action >= 7
               && String.sub diag.Ssp.Report.action 0 7 = "degrade"
            then (d + 1, s)
            else if diag.Ssp.Report.action = "skip" then (d, s + 1)
            else (d, s))
          (0, 0) result.Ssp.Adapt.report.Ssp.Report.diagnostics
      in
      {
        c_seed = 0;  (* filled by the caller *)
        violations;
        faults = F.counts plan;
        degraded;
        skipped;
        slices = List.length result.Ssp.Adapt.choices;
      })

let run ?(jobs = 1) ?(scale = 2) ?(specs = default_specs) ~seed ~campaigns
    (ws : Ssp_workloads.Workload.t list) =
  let cfg =
    Experiment.config_for
      { Experiment.scale; cache_divisor = 64; label = "chaos" }
      Config.In_order
  in
  let workloads =
    List.map
      (fun (w : Ssp_workloads.Workload.t) ->
        let name = w.Ssp_workloads.Workload.name in
        let prog = Ssp_workloads.Workload.program w ~scale in
        let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
        (* Fault-free references: the unadapted cycle run and funcsim. *)
        let base = Ssp_sim.Inorder.run cfg prog in
        let ref_outputs = base.Ssp_sim.Stats.outputs in
        let funcsim_ref = (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.outputs in
        let campaigns =
          (* Campaigns run sequentially: a plan is ambient global state
             (the per-campaign Adapt.run may itself use [jobs] domains). *)
          List.init campaigns (fun i ->
              let c_seed = Hashtbl.hash (seed, name, i) in
              let plan = F.make ~seed:c_seed specs in
              {
                (run_campaign ~jobs ~cfg ~prog ~profile ~ref_outputs
                   ~funcsim_ref plan)
                with
                c_seed;
              })
        in
        { w_name = name; campaigns })
      ws
  in
  { seed; n_campaigns = campaigns; specs; workloads }

let pp ppf r =
  let viol = violations r in
  let sites = fired_sites r in
  let degraded, skipped = ladder_events r in
  Format.fprintf ppf
    "@[<v>chaos: seed %d, %d campaigns x %d workloads: %d safety violations@,"
    r.seed r.n_campaigns
    (List.length r.workloads)
    viol;
  Format.fprintf ppf
    "  ladder: %d degradations, %d loads skipped; %d distinct fault sites \
     fired:@,"
    degraded skipped (List.length sites);
  List.iter (fun s -> Format.fprintf ppf "    %s@," s) sites;
  List.iter
    (fun w ->
      List.iter
        (fun c ->
          let fired =
            List.fold_left (fun acc (f : F.count) -> acc + f.F.fired) 0 c.faults
          in
          Format.fprintf ppf
            "  %-12s seed=%-12d slices=%-2d degraded=%-2d skipped=%-2d \
             faults=%-4d %s@,"
            w.w_name c.c_seed c.slices c.degraded c.skipped fired
            (if c.violations = [] then "ok" else "VIOLATION");
          List.iter
            (fun v -> Format.fprintf ppf "    !! %s@," v)
            c.violations)
        w.campaigns)
    r.workloads;
  Format.fprintf ppf "@]"

let to_json r =
  let degraded, skipped = ladder_events r in
  let strings xs = Json.List (List.map (fun s -> Json.String s) xs) in
  let fault (f : F.count) =
    ( f.F.site,
      Json.Obj [ ("queried", Int f.F.queried); ("fired", Int f.F.fired) ] )
  in
  let campaign c =
    Json.Obj
      [
        ("seed", Int c.c_seed);
        ("slices", Int c.slices);
        ("degraded", Int c.degraded);
        ("skipped", Int c.skipped);
        ("violations", strings c.violations);
        ("faults", Obj (List.map fault c.faults));
      ]
  in
  let workload w =
    Json.Obj
      [
        ("name", String w.w_name);
        ("campaigns", List (List.map campaign w.campaigns));
      ]
  in
  Json.to_string
    (Obj
       [
         ("seed", Int r.seed);
         ("campaigns", Int r.n_campaigns);
         ("violations", Int (violations r));
         ("degraded", Int degraded);
         ("skipped", Int skipped);
         ("fired_sites", strings (fired_sites r));
         ("workloads", List (List.map workload r.workloads));
       ])
