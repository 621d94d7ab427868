(* `sspc explain`: join everything the pipeline knows about each
   delinquent load — profile miss share, the slice/scheme/slack the tool
   chose, trigger placement — with what the simulator's prefetch
   attribution then observed (useful / late / early-evicted / redundant /
   dropped, coverage / accuracy / timeliness). One row per delinquent
   load; rendered as a table or as JSON. *)

module Iref = Ssp_ir.Iref
module Attrib = Ssp_sim.Attrib
module Json = Ssp_telemetry.Json

type scheme = {
  model : string; (* "chaining" | "basic" *)
  slice_size : int;
  live_ins : int;
  region : string;
  interprocedural : bool;
  spawn_condition : string; (* "computed" | "predicted" *)
  slack1_csp : int;
  slack1_bsp : int;
  trips : int;
  triggers : Trigger.t list;
}

type row = {
  load : Delinquent.load;
  miss_share : float; (* of all profiled miss cycles *)
  scheme : scheme option; (* None: no slice covers this load *)
  attrib : Attrib.load_summary option;
  feedback : string option; (* cluster-aggregate cell, caller-supplied *)
}

type t = {
  rows : row list;
  threads : Attrib.thread_summary;
  sites : Attrib.site_summary list;
  profile_coverage : float; (* miss-cycle coverage of the selected loads *)
  cycles : int; (* simulated cycles of the attributed run *)
  diagnostics : Report.diag list; (* degradation-ladder decisions *)
}

let region_string r = Format.asprintf "%a" Ssp_analysis.Regions.pp r

let scheme_of (c : Select.choice) =
  let sched = c.Select.schedule in
  let slice = sched.Schedule.slice in
  {
    model =
      (match c.Select.model with
      | Select.Chaining -> "chaining"
      | Select.Basic -> "basic");
    slice_size = Slice.size slice;
    live_ins = List.length slice.Slice.live_ins;
    region = region_string slice.Slice.region;
    interprocedural = slice.Slice.interprocedural;
    spawn_condition =
      (match sched.Schedule.spawn_cond with
      | Schedule.Cond _ -> "computed"
      | Schedule.Predicted _ -> "predicted");
    slack1_csp = Schedule.slack_csp sched 1;
    slack1_bsp = Schedule.slack_bsp sched 1;
    trips = c.Select.trips;
    triggers = c.Select.triggers;
  }

(* The choice whose (possibly merged) slice covers this load. *)
let choice_for (choices : Select.choice list) (load : Delinquent.load) =
  List.find_opt
    (fun (c : Select.choice) ->
      List.exists
        (fun (t : Slice.target) -> Iref.equal t.Slice.load load.Delinquent.iref)
        c.Select.schedule.Schedule.slice.Slice.targets)
    choices

let build ?(feedback = fun _ -> None) ~(result : Adapt.result)
    ~(stats : Ssp_sim.Stats.t) ~(attrib : Attrib.summary) () =
  let d = result.Adapt.delinquent in
  let total = max 1 d.Delinquent.total_miss_cycles in
  let rows =
    List.map
      (fun (load : Delinquent.load) ->
        {
          load;
          miss_share =
            float_of_int load.Delinquent.miss_cycles /. float_of_int total;
          scheme =
            Option.map scheme_of (choice_for result.Adapt.choices load);
          attrib = Attrib.find_load attrib load.Delinquent.iref;
          feedback = feedback load.Delinquent.iref;
        })
      d.Delinquent.loads
  in
  {
    rows;
    threads = attrib.Attrib.threads;
    sites = attrib.Attrib.sites;
    profile_coverage = d.Delinquent.covered;
    cycles = stats.Ssp_sim.Stats.cycles;
    diagnostics = result.Adapt.report.Report.diagnostics;
  }

(* ---- table rendering ---- *)

let pct f = 100. *. f

let trigger_string (t : Trigger.t) =
  Printf.sprintf "%s:%d@%d(%s)" t.Trigger.fn t.Trigger.blk t.Trigger.pos
    (match t.Trigger.kind with
    | Trigger.Preheader -> "preheader"
    | Trigger.Body -> "body"
    | Trigger.Call_site -> "call site")

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "== prefetch-effectiveness attribution (%d delinquent loads, profile \
     coverage %.1f%%, %d simulated cycles) ==@,"
    (List.length t.rows) (pct t.profile_coverage) t.cycles;
  List.iter
    (fun r ->
      let l = r.load in
      Format.fprintf ppf "@,load %s  miss-share %.1f%%  miss-ratio %.2f  (%d miss cycles / %d accesses)@,"
        (Iref.to_string l.Delinquent.iref)
        (pct r.miss_share) l.Delinquent.miss_ratio l.Delinquent.miss_cycles
        l.Delinquent.accesses;
      (match r.scheme with
      | None -> Format.fprintf ppf "  scheme    (none: no slice selected)@,"
      | Some s ->
        Format.fprintf ppf
          "  scheme    %s  slice %d instrs  live-ins %d  region %s%s  spawn %s@,"
          s.model s.slice_size s.live_ins s.region
          (if s.interprocedural then " (interprocedural)" else "")
          s.spawn_condition;
        Format.fprintf ppf "  slack     csp(1)=%d  bsp(1)=%d  trips %d@,"
          s.slack1_csp s.slack1_bsp s.trips;
        Format.fprintf ppf "  triggers  %s@,"
          (String.concat "  " (List.map trigger_string s.triggers)));
      (match r.attrib with
      | None -> Format.fprintf ppf "  sim       (no attributed prefetches)@,"
      | Some a ->
        Format.fprintf ppf
          "  sim       issued %d  useful %d  late %d  early-evicted %d  \
           redundant %d  dropped %d  unused %d@,"
          a.Attrib.ls_issued a.Attrib.ls_useful a.Attrib.ls_late
          a.Attrib.ls_early_evicted a.Attrib.ls_redundant a.Attrib.ls_dropped
          a.Attrib.ls_unused;
        Format.fprintf ppf
          "  effect    coverage %.1f%%  accuracy %.1f%%  timeliness %.1f%%  \
           lead %.1fcy  late-wait %.1fcy@,"
          (pct a.Attrib.ls_coverage) (pct a.Attrib.ls_accuracy)
          (pct a.Attrib.ls_timeliness) a.Attrib.ls_mean_lead
          a.Attrib.ls_mean_late_wait;
        Format.fprintf ppf "  demand    %d accesses, %d hits@,"
          a.Attrib.ls_demand_accesses a.Attrib.ls_demand_hits);
      match r.feedback with
      | Some cell -> Format.fprintf ppf "  feedback  %s@," cell
      | None -> ())
    t.rows;
  let th = t.threads in
  Format.fprintf ppf
    "@,threads   spawns %d (denied %d)  ended %d  watchdog-kills %d  \
     lifetime avg %.1fcy max %dcy@,"
    th.Attrib.th_spawns th.Attrib.th_denied th.Attrib.th_ended
    th.Attrib.th_watchdog_kills th.Attrib.th_mean_lifetime
    th.Attrib.th_max_lifetime;
  if t.sites <> [] then begin
    Format.fprintf ppf "spawn sites:@,";
    List.iter
      (fun (s : Attrib.site_summary) ->
        Format.fprintf ppf "  %-20s spawns %8d  denied %8d@,"
          (Iref.to_string s.Attrib.ss_site)
          s.Attrib.ss_spawns s.Attrib.ss_denied)
      t.sites
  end;
  if t.diagnostics <> [] then begin
    Format.fprintf ppf "degradations (%d):@," (List.length t.diagnostics);
    List.iter
      (fun (d : Report.diag) ->
        Format.fprintf ppf "  %-20s %-10s %-16s %s@," d.Report.load
          d.Report.stage d.Report.action d.Report.detail)
      t.diagnostics
  end;
  Format.fprintf ppf "@]"

(* ---- JSON rendering ---- *)

let to_json t =
  let scheme_json s =
    let trigger tr =
      Json.Obj
        [
          ("fn", String tr.Trigger.fn);
          ("blk", Int tr.Trigger.blk);
          ("pos", Int tr.Trigger.pos);
          ( "kind",
            String
              (match tr.Trigger.kind with
              | Trigger.Preheader -> "preheader"
              | Trigger.Body -> "body"
              | Trigger.Call_site -> "call_site") );
        ]
    in
    Json.Obj
      [
        ("model", String s.model);
        ("slice_size", Int s.slice_size);
        ("live_ins", Int s.live_ins);
        ("region", String s.region);
        ("interprocedural", Bool s.interprocedural);
        ("spawn_condition", String s.spawn_condition);
        ("slack1_csp", Int s.slack1_csp);
        ("slack1_bsp", Int s.slack1_bsp);
        ("trips", Int s.trips);
        ("triggers", List (List.map trigger s.triggers));
      ]
  in
  let attrib_json (a : Attrib.load_summary) =
    Json.Obj
      [
        ("issued", Int a.Attrib.ls_issued);
        ("useful", Int a.Attrib.ls_useful);
        ("late", Int a.Attrib.ls_late);
        ("early_evicted", Int a.Attrib.ls_early_evicted);
        ("redundant", Int a.Attrib.ls_redundant);
        ("dropped", Int a.Attrib.ls_dropped);
        ("unused", Int a.Attrib.ls_unused);
        ("demand_accesses", Int a.Attrib.ls_demand_accesses);
        ("demand_hits", Int a.Attrib.ls_demand_hits);
        ("coverage", Float a.Attrib.ls_coverage);
        ("accuracy", Float a.Attrib.ls_accuracy);
        ("timeliness", Float a.Attrib.ls_timeliness);
        ("mean_lead_cycles", Float a.Attrib.ls_mean_lead);
        ("mean_late_wait_cycles", Float a.Attrib.ls_mean_late_wait);
      ]
  in
  let row r =
    let l = r.load in
    let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
    Json.(
      Obj
        ([
           ("load", String (Iref.to_string l.Delinquent.iref));
           ("miss_cycles", Int l.Delinquent.miss_cycles);
           ("accesses", Int l.Delinquent.accesses);
           ("miss_ratio", Float l.Delinquent.miss_ratio);
           ("miss_share", Float r.miss_share);
         ]
        @ opt "scheme" scheme_json r.scheme
        @ opt "attribution" attrib_json r.attrib
        @ opt "feedback" (fun cell -> String cell) r.feedback))
  in
  let th = t.threads in
  let site (s : Attrib.site_summary) =
    Json.Obj
      [
        ("site", String (Iref.to_string s.Attrib.ss_site));
        ("spawns", Int s.Attrib.ss_spawns);
        ("denied", Int s.Attrib.ss_denied);
      ]
  in
  let diagnostic (d : Report.diag) =
    Json.Obj
      [
        ("load", String d.Report.load);
        ("stage", String d.Report.stage);
        ("action", String d.Report.action);
        ("detail", String d.Report.detail);
      ]
  in
  Json.to_string
    (Obj
       [
         ("cycles", Int t.cycles);
         ("profile_coverage", Float t.profile_coverage);
         ("loads", List (List.map row t.rows));
         ( "threads",
           Obj
             [
               ("spawns", Int th.Attrib.th_spawns);
               ("denied", Int th.Attrib.th_denied);
               ("ended", Int th.Attrib.th_ended);
               ("watchdog_kills", Int th.Attrib.th_watchdog_kills);
               ("mean_lifetime_cycles", Float th.Attrib.th_mean_lifetime);
               ("max_lifetime_cycles", Int th.Attrib.th_max_lifetime);
             ] );
         ("spawn_sites", List (List.map site t.sites));
         ("diagnostics", List (List.map diagnostic t.diagnostics));
       ])
