module T = Ssp_telemetry.Telemetry
module Store = Ssp_store.Store
module Bin = Store.Bin
module Iref = Ssp_ir.Iref
module Suite = Ssp_workloads.Suite

let err what = Ssp_ir.Error.raise_error ~pass:"feedback" what

type load_stat = {
  fl_load : Iref.t;
  fl_issued : int;
  fl_useful : int;
  fl_late : int;
  fl_early_evicted : int;
  fl_redundant : int;
  fl_dropped : int;
  fl_unused : int;
  fl_demand_accesses : int;
  fl_demand_hits : int;
  fl_lead_hist : T.hist_summary;
}

type report = {
  fr_prog : Suite.program;
  fr_scale : int;
  fr_pipeline : string;
  fr_version : int;
  fr_cycles : int;
  fr_loads : load_stat list;
}

let report_of_attrib ~prog ~scale ~pipeline ~version ~cycles
    (s : Ssp_sim.Attrib.summary) =
  let loads =
    List.map
      (fun (l : Ssp_sim.Attrib.load_summary) ->
        {
          fl_load = l.ls_load;
          fl_issued = l.ls_issued;
          fl_useful = l.ls_useful;
          fl_late = l.ls_late;
          fl_early_evicted = l.ls_early_evicted;
          fl_redundant = l.ls_redundant;
          fl_dropped = l.ls_dropped;
          fl_unused = l.ls_unused;
          fl_demand_accesses = l.ls_demand_accesses;
          fl_demand_hits = l.ls_demand_hits;
          fl_lead_hist = l.ls_lead_hist;
        })
      s.Ssp_sim.Attrib.loads
  in
  (* Canonical load order: the digest store key relies on identical runs
     serializing identically. *)
  let loads =
    List.sort (fun a b -> Iref.compare a.fl_load b.fl_load) loads
  in
  {
    fr_prog = prog;
    fr_scale = scale;
    fr_pipeline = pipeline;
    fr_version = version;
    fr_cycles = cycles;
    fr_loads = loads;
  }

(* ---- codecs ---- *)

(* Report tags are 1 and 2, not the wire protocol's 0 and 1: persisted
   reports, and the store keys digested from their bytes, must stay
   readable. *)
let w_program b = function
  | Suite.Workload n ->
    Bin.w_u8 b 1;
    Bin.w_str b n
  | Suite.Source src ->
    Bin.w_u8 b 2;
    Bin.w_str b src

let r_program r =
  match Bin.r_u8 r with
  | 1 -> Suite.Workload (Bin.r_str r)
  | 2 -> Suite.Source (Bin.r_str r)
  | k -> err (Printf.sprintf "unknown program-identity tag %d" k)

let w_load_stat b l =
  Store.w_iref b l.fl_load;
  Bin.w_int b l.fl_issued;
  Bin.w_int b l.fl_useful;
  Bin.w_int b l.fl_late;
  Bin.w_int b l.fl_early_evicted;
  Bin.w_int b l.fl_redundant;
  Bin.w_int b l.fl_dropped;
  Bin.w_int b l.fl_unused;
  Bin.w_int b l.fl_demand_accesses;
  Bin.w_int b l.fl_demand_hits;
  Store.w_hist b l.fl_lead_hist

let r_load_stat r =
  let fl_load = Store.r_iref r in
  let fl_issued = Bin.r_int r in
  let fl_useful = Bin.r_int r in
  let fl_late = Bin.r_int r in
  let fl_early_evicted = Bin.r_int r in
  let fl_redundant = Bin.r_int r in
  let fl_dropped = Bin.r_int r in
  let fl_unused = Bin.r_int r in
  let fl_demand_accesses = Bin.r_int r in
  let fl_demand_hits = Bin.r_int r in
  let fl_lead_hist = Store.r_hist r in
  {
    fl_load;
    fl_issued;
    fl_useful;
    fl_late;
    fl_early_evicted;
    fl_redundant;
    fl_dropped;
    fl_unused;
    fl_demand_accesses;
    fl_demand_hits;
    fl_lead_hist;
  }

let encode_report rep =
  let b = Bin.writer () in
  w_program b rep.fr_prog;
  Bin.w_int b rep.fr_scale;
  Bin.w_str b rep.fr_pipeline;
  Bin.w_int b rep.fr_version;
  Bin.w_int b rep.fr_cycles;
  Bin.w_int b (List.length rep.fr_loads);
  List.iter (w_load_stat b) rep.fr_loads;
  Store.seal_kind ~kind:Store.kind_feedback_report (Bin.contents b)

let decode_report blob =
  let r = Bin.reader (Store.unseal_kind ~kind:Store.kind_feedback_report blob) in
  let fr_prog = r_program r in
  let fr_scale = Bin.r_int r in
  let fr_pipeline = Bin.r_str r in
  let fr_version = Bin.r_int r in
  let fr_cycles = Bin.r_int r in
  let n = Bin.r_int r in
  let fr_loads = List.init n (fun _ -> r_load_stat r) in
  Bin.expect_end r;
  { fr_prog; fr_scale; fr_pipeline; fr_version; fr_cycles; fr_loads }

let report_store_key blob = Store.cache_key [ "feedback-report"; blob ]

(* ---- aggregation ---- *)

type agg_load = {
  al_issued : float;
  al_useful : float;
  al_late : float;
  al_early_evicted : float;
  al_redundant : float;
  al_dropped : float;
  al_unused : float;
  al_demand_accesses : float;
  al_demand_hits : float;
  al_lead_hist : T.hist_summary;
}

type aggregate = {
  ag_version : int;
  ag_overrides : Ssp.Adapt.overrides;
  ag_last_action : string;
  ag_reports : int;
  ag_total_reports : int;
  ag_stale : int;
  ag_last_report_s : float;
  ag_cycles : float;
  ag_loads : agg_load Iref.Map.t;
}

let empty_aggregate =
  {
    ag_version = 0;
    ag_overrides = Ssp.Adapt.no_overrides;
    ag_last_action = "";
    ag_reports = 0;
    ag_total_reports = 0;
    ag_stale = 0;
    ag_last_report_s = 0.;
    ag_cycles = 0.;
    ag_loads = Iref.Map.empty;
  }

let default_decay = 0.9

let empty_agg_load () =
  {
    al_issued = 0.;
    al_useful = 0.;
    al_late = 0.;
    al_early_evicted = 0.;
    al_redundant = 0.;
    al_dropped = 0.;
    al_unused = 0.;
    al_demand_accesses = 0.;
    al_demand_hits = 0.;
    al_lead_hist = T.empty_hist_summary ();
  }

let decay_load d a =
  {
    a with
    al_issued = a.al_issued *. d;
    al_useful = a.al_useful *. d;
    al_late = a.al_late *. d;
    al_early_evicted = a.al_early_evicted *. d;
    al_redundant = a.al_redundant *. d;
    al_dropped = a.al_dropped *. d;
    al_unused = a.al_unused *. d;
    al_demand_accesses = a.al_demand_accesses *. d;
    al_demand_hits = a.al_demand_hits *. d;
  }

let merge_load a (l : load_stat) =
  let f = float_of_int in
  {
    al_issued = a.al_issued +. f l.fl_issued;
    al_useful = a.al_useful +. f l.fl_useful;
    al_late = a.al_late +. f l.fl_late;
    al_early_evicted = a.al_early_evicted +. f l.fl_early_evicted;
    al_redundant = a.al_redundant +. f l.fl_redundant;
    al_dropped = a.al_dropped +. f l.fl_dropped;
    al_unused = a.al_unused +. f l.fl_unused;
    al_demand_accesses = a.al_demand_accesses +. f l.fl_demand_accesses;
    al_demand_hits = a.al_demand_hits +. f l.fl_demand_hits;
    al_lead_hist = T.merge_hist_summary a.al_lead_hist l.fl_lead_hist;
  }

let ingest ?now ?(decay = default_decay) agg rep =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  if rep.fr_version <> agg.ag_version then
    {
      agg with
      ag_stale = agg.ag_stale + 1;
      ag_total_reports = agg.ag_total_reports + 1;
      ag_last_report_s = now;
    }
  else
    (* Decay everything first (including loads absent from this report),
       then add the fresh counts — ratios are decay-invariant. *)
    let loads = Iref.Map.map (decay_load decay) agg.ag_loads in
    let loads =
      List.fold_left
        (fun m l ->
          let cur =
            match Iref.Map.find_opt l.fl_load m with
            | Some a -> a
            | None -> empty_agg_load ()
          in
          Iref.Map.add l.fl_load (merge_load cur l) m)
        loads rep.fr_loads
    in
    {
      agg with
      ag_reports = agg.ag_reports + 1;
      ag_total_reports = agg.ag_total_reports + 1;
      ag_last_report_s = now;
      ag_cycles = (agg.ag_cycles *. decay) +. float_of_int rep.fr_cycles;
      ag_loads = loads;
    }

let fold_reports ?now ?decay agg reports =
  List.fold_left (fun a r -> ingest ?now ?decay a r) agg reports

let reset_loads agg =
  { agg with ag_reports = 0; ag_cycles = 0.; ag_loads = Iref.Map.empty }

let encode_aggregate agg =
  let b = Bin.writer () in
  Bin.w_int b agg.ag_version;
  let ov = Iref.Map.bindings agg.ag_overrides in
  Bin.w_int b (List.length ov);
  List.iter
    (fun (iref, (lk : Ssp.Adapt.load_knob)) ->
      Store.w_iref b iref;
      Bin.w_bool b lk.Ssp.Adapt.lk_skip;
      Bin.w_u8 b
        (match lk.Ssp.Adapt.lk_model with
        | `Keep -> 0
        | `Basic -> 1
        | `Chaining -> 2);
      Bin.w_int b lk.Ssp.Adapt.lk_unroll)
    ov;
  Bin.w_str b agg.ag_last_action;
  Bin.w_int b agg.ag_reports;
  Bin.w_int b agg.ag_total_reports;
  Bin.w_int b agg.ag_stale;
  Bin.w_float b agg.ag_last_report_s;
  Bin.w_float b agg.ag_cycles;
  let loads = Iref.Map.bindings agg.ag_loads in
  Bin.w_int b (List.length loads);
  List.iter
    (fun (iref, a) ->
      Store.w_iref b iref;
      Bin.w_float b a.al_issued;
      Bin.w_float b a.al_useful;
      Bin.w_float b a.al_late;
      Bin.w_float b a.al_early_evicted;
      Bin.w_float b a.al_redundant;
      Bin.w_float b a.al_dropped;
      Bin.w_float b a.al_unused;
      Bin.w_float b a.al_demand_accesses;
      Bin.w_float b a.al_demand_hits;
      Store.w_hist b a.al_lead_hist)
    loads;
  Store.seal_kind ~kind:Store.kind_feedback_aggregate (Bin.contents b)

let decode_aggregate blob =
  let r =
    Bin.reader (Store.unseal_kind ~kind:Store.kind_feedback_aggregate blob)
  in
  let ag_version = Bin.r_int r in
  let nov = Bin.r_int r in
  let ag_overrides =
    List.init nov (fun _ ->
        let iref = Store.r_iref r in
        let lk_skip = Bin.r_bool r in
        let lk_model =
          match Bin.r_u8 r with
          | 0 -> `Keep
          | 1 -> `Basic
          | 2 -> `Chaining
          | k -> err (Printf.sprintf "unknown model tag %d" k)
        in
        let lk_unroll = Bin.r_int r in
        (iref, { Ssp.Adapt.lk_skip; lk_model; lk_unroll }))
    |> List.to_seq |> Iref.Map.of_seq
  in
  let ag_last_action = Bin.r_str r in
  let ag_reports = Bin.r_int r in
  let ag_total_reports = Bin.r_int r in
  let ag_stale = Bin.r_int r in
  let ag_last_report_s = Bin.r_float r in
  let ag_cycles = Bin.r_float r in
  let nl = Bin.r_int r in
  let ag_loads =
    List.init nl (fun _ ->
        let iref = Store.r_iref r in
        let al_issued = Bin.r_float r in
        let al_useful = Bin.r_float r in
        let al_late = Bin.r_float r in
        let al_early_evicted = Bin.r_float r in
        let al_redundant = Bin.r_float r in
        let al_dropped = Bin.r_float r in
        let al_unused = Bin.r_float r in
        let al_demand_accesses = Bin.r_float r in
        let al_demand_hits = Bin.r_float r in
        let al_lead_hist = Store.r_hist r in
        ( iref,
          {
            al_issued;
            al_useful;
            al_late;
            al_early_evicted;
            al_redundant;
            al_dropped;
            al_unused;
            al_demand_accesses;
            al_demand_hits;
            al_lead_hist;
          } ))
    |> List.to_seq |> Iref.Map.of_seq
  in
  Bin.expect_end r;
  {
    ag_version;
    ag_overrides;
    ag_last_action;
    ag_reports;
    ag_total_reports;
    ag_stale;
    ag_last_report_s;
    ag_cycles;
    ag_loads;
  }

let aggregate_key ~config prog profile =
  Store.cache_key
    [
      "feedback";
      string_of_int Store.format_version;
      Store.hash_program prog;
      Store.hash_profile profile;
      Ssp_machine.Config.fingerprint config;
      Ssp.Adapt.knobs_string Ssp.Adapt.default_knobs;
    ]

let find_aggregate cache key =
  Store.Cache.get cache key ~decode:decode_aggregate

(* ---- the one request pipeline ---- *)

type served = {
  sv_profile : Ssp_profiling.Profile.t;
  sv_result : Ssp.Adapt.result;
  sv_status : [ `Hit | `Miss | `Off ];
  sv_tuning : (int * Ssp.Adapt.overrides) option;
}

(* Version 0 (or no aggregate at all) serves the untuned artifact under
   the original cache key; any later version serves the immutable
   version-stamped artifact the tuner published. The status is the adapt
   lookup's: that is the expensive artifact, and the one whose hit makes
   the reply byte-identical-but-fast. *)
let adapt ?cache ?jobs ~config prog =
  let profile, _ = Store.cached_profile ?cache ~config prog in
  let tuning =
    match cache with
    | None -> None
    | Some c -> (
      match find_aggregate c (aggregate_key ~config prog profile) with
      | Some agg when agg.ag_version > 0 ->
        Some (agg.ag_version, agg.ag_overrides)
      | Some _ | None -> None)
  in
  let result, status =
    Store.run_cached ?cache ?jobs ?tuning ~config prog profile
  in
  { sv_profile = profile; sv_result = result; sv_status = status;
    sv_tuning = tuning }

(* ---- derived ratios ---- *)

let frac num den = if den <= 0. then 0. else num /. den

(* Attribution counts issued / redundant / dropped disjointly: a
   prefetch squashed because its line was already present is "redundant"
   and never "issued". Ratios therefore run over all attempts. *)
let attempts a = a.al_issued +. a.al_redundant +. a.al_dropped
let redundant_frac a = frac a.al_redundant (attempts a)
let late_frac a = frac a.al_late (a.al_useful +. a.al_late)
let accuracy a = frac a.al_useful (attempts a)

let coverage_frac a =
  let misses = a.al_demand_accesses -. a.al_demand_hits in
  frac (a.al_useful +. a.al_late) (misses +. a.al_useful +. a.al_late)

let timeliness a = frac a.al_useful (a.al_useful +. a.al_late)

(* ---- tuning ---- *)

type action = { act_load : Iref.t; act_what : string; act_why : string }

let action_to_string a =
  Printf.sprintf "%s: %s (%s)" (Iref.to_string a.act_load) a.act_what a.act_why

let default_min_reports = 3
let default_min_samples = 16.
let unroll_cap = 8

(* One monotone step for one load. The knob lattice is
   Keep < Chaining < Basic < skip on the model axis (rightward moves
   only) and strictly-increasing unroll up to [unroll_cap] — finite, so
   repeated planning always reaches a fixed point. *)
let step_load ~knobs (cur : Ssp.Adapt.load_knob) a :
    (Ssp.Adapt.load_knob * string * string) option =
  let rf = redundant_frac a in
  let lf = late_frac a in
  if cur.Ssp.Adapt.lk_skip then None (* skip is absorbing *)
  else if rf >= 0.8 then
    (* Mostly redundant: step toward skip. A load already demoted to the
       basic model that still prefetches present lines gets dropped. *)
    let why = Printf.sprintf "redundant %.0f%% of issues" (100. *. rf) in
    match cur.Ssp.Adapt.lk_model with
    | `Basic -> Some ({ cur with Ssp.Adapt.lk_skip = true }, "skip", why)
    | `Keep | `Chaining ->
      Some ({ cur with Ssp.Adapt.lk_model = `Basic }, "model=basic", why)
  else if rf >= 0.5 then
    match cur.Ssp.Adapt.lk_model with
    | `Keep | `Chaining ->
      Some
        ( { cur with Ssp.Adapt.lk_model = `Basic },
          "model=basic",
          Printf.sprintf "redundant %.0f%% of issues" (100. *. rf) )
    | `Basic -> None
  else if lf >= 0.5 && rf < 0.3 then
    (* Chronically late and not wasteful: run further ahead — promote to
       the chaining model first (Adapt clamps the promotion by the
       load's degradation-ladder ceiling), then widen the lookahead. *)
    let why = Printf.sprintf "late %.0f%% of covered uses" (100. *. lf) in
    match cur.Ssp.Adapt.lk_model with
    | `Keep -> Some ({ cur with Ssp.Adapt.lk_model = `Chaining }, "model=chaining", why)
    | `Chaining | `Basic ->
      let base =
        if cur.Ssp.Adapt.lk_unroll > 0 then cur.Ssp.Adapt.lk_unroll
        else max 1 knobs.Ssp.Adapt.unroll
      in
      let next = min unroll_cap (base * 2) in
      if next > base || cur.Ssp.Adapt.lk_unroll = 0 then
        Some
          ( { cur with Ssp.Adapt.lk_unroll = next },
            Printf.sprintf "unroll=%d" next,
            why )
      else None
  else None

let plan ?(min_reports = default_min_reports)
    ?(min_samples = default_min_samples) ~knobs agg =
  if agg.ag_reports < min_reports then (agg.ag_overrides, [])
  else
    Iref.Map.fold
      (fun load a (ov, actions) ->
        if attempts a < min_samples then (ov, actions)
        else
          let cur =
            match Iref.Map.find_opt load ov with
            | Some k -> k
            | None -> Ssp.Adapt.keep_knob
          in
          match step_load ~knobs cur a with
          | None -> (ov, actions)
          | Some (knob, what, why) ->
            ( Iref.Map.add load knob ov,
              { act_load = load; act_what = what; act_why = why } :: actions ))
      agg.ag_loads
      (agg.ag_overrides, [])
    |> fun (ov, actions) -> (ov, List.rev actions)

let publish ?now agg ~overrides ~actions =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let summary =
    Printf.sprintf "v%d: %s" (agg.ag_version + 1)
      (String.concat "; " (List.map action_to_string actions))
  in
  reset_loads
    {
      agg with
      ag_version = agg.ag_version + 1;
      ag_overrides = overrides;
      ag_last_action = summary;
      ag_last_report_s = (if agg.ag_last_report_s > 0. then agg.ag_last_report_s else now);
    }

type tuned = {
  td_aggregate : aggregate;
  td_actions : action list;
  td_result : Ssp.Adapt.result;
  td_status : [ `Hit | `Miss | `Off ];
}

let tune_reports ?cache ?now ?min_reports ?min_samples ~config prog profile
    reports =
  let key = aggregate_key ~config prog profile in
  let live =
    Option.bind cache (fun c -> find_aggregate c key)
    |> Option.value ~default:empty_aggregate
  in
  (* Deterministic decision input: rebuild from the persisted report
     set in canonical (encoded-bytes) order, ignoring the live
     arrival-order accumulation. Same store contents => same plan =>
     byte-identical published artifact, daemon-side or offline. *)
  let reports =
    List.sort
      (fun a b -> String.compare (encode_report a) (encode_report b))
      reports
  in
  let agg = fold_reports ?now (reset_loads live) reports in
  let overrides, actions =
    plan ?min_reports ?min_samples ~knobs:Ssp.Adapt.default_knobs agg
  in
  if actions = [] then None
  else
    let pub = publish ?now agg ~overrides ~actions in
    let result, status =
      Store.run_cached ?cache ~tuning:(pub.ag_version, overrides) ~config prog
        profile
    in
    (match cache with
    | Some c -> Store.Cache.put c key (encode_aggregate pub)
    | None -> ());
    Some
      { td_aggregate = pub; td_actions = actions; td_result = result;
        td_status = status }

(* ---- offline store walking ---- *)

let reports_in_store cache =
  Store.Cache.keys cache
  |> List.filter_map (fun key ->
         match Store.Cache.find cache key with
         | None -> None
         | Some blob ->
           if Store.blob_kind blob = Some Store.kind_feedback_report then
             match decode_report blob with
             | rep -> Some (key, rep)
             | exception _ -> None
           else None)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let config_of_pipeline name =
  match Ssp_machine.Config.of_pipeline_name name with
  | Some config -> config
  | None -> err ("unknown pipeline " ^ name)

type store_tune = {
  st_prog : Suite.program;
  st_scale : int;
  st_pipeline : string;
  st_reports : int;
  st_aggregate : aggregate;
  st_tuned : tuned option;
}

let tune_store ?now ?min_reports ?min_samples cache =
  let groups = Hashtbl.create 7 in
  List.iter
    (fun (_, rep) ->
      let id = (rep.fr_prog, rep.fr_scale, rep.fr_pipeline) in
      Hashtbl.replace groups id
        (rep :: (try Hashtbl.find groups id with Not_found -> [])))
    (reports_in_store cache);
  Hashtbl.fold (fun id reps acc -> (id, reps) :: acc) groups []
  |> List.sort compare
  |> List.map (fun ((id, scale, pipeline), reps) ->
         let config = config_of_pipeline pipeline in
         let prog = Suite.compile ~pass:"feedback" id ~scale in
         let profile, _ = Store.cached_profile ~cache ~config prog in
         let tuned =
           tune_reports ~cache ?now ?min_reports ?min_samples ~config prog
             profile reps
         in
         let aggregate =
           match tuned with
           | Some t -> t.td_aggregate
           | None -> (
             let key = aggregate_key ~config prog profile in
             match find_aggregate cache key with
             | Some a -> a
             | None -> fold_reports ?now empty_aggregate reps)
         in
         {
           st_prog = id;
           st_scale = scale;
           st_pipeline = pipeline;
           st_reports = List.length reps;
           st_aggregate = aggregate;
           st_tuned = tuned;
         })
