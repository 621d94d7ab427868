module T = Ssp_telemetry.Telemetry
module Store = Ssp_store.Store
module Bin = Store.Bin
module Iref = Ssp_ir.Iref
module Suite = Ssp_workloads.Suite
module Attrib = Ssp_sim.Attrib

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
    (s : Attrib.summary) =
  let loads =
    List.map
      (fun (l : Attrib.load_summary) ->
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
      s.Attrib.loads
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
  Store.w_program b rep.fr_prog;
  Bin.w_int b rep.fr_scale;
  Bin.w_str b rep.fr_pipeline;
  Bin.w_int b rep.fr_version;
  Bin.w_int b rep.fr_cycles;
  Bin.w_int b (List.length rep.fr_loads);
  List.iter (w_load_stat b) rep.fr_loads;
  Store.seal_kind ~kind:Store.kind_feedback_report (Bin.contents b)

let decode_report blob =
  let r = Bin.reader (Store.unseal_kind ~kind:Store.kind_feedback_report blob) in
  let fr_prog = Store.r_program r in
  let fr_scale = Bin.r_int r in
  let fr_pipeline = Bin.r_str r in
  let fr_version = Bin.r_int r in
  let fr_cycles = Bin.r_int r in
  let n = Bin.r_int r in
  let fr_loads = List.init n (fun _ -> r_load_stat r) in
  Bin.expect_end r;
  { fr_prog; fr_scale; fr_pipeline; fr_version; fr_cycles; fr_loads }

let report_store_key blob = Store.cache_key [ "feedback-report"; blob ]

(* ---- the one aggregation ---- *)

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
  ag_stale : int;
  ag_loads : agg_load Iref.Map.t;
}

let empty_aggregate =
  {
    ag_version = 0;
    ag_overrides = Ssp.Adapt.no_overrides;
    ag_last_action = "";
    ag_reports = 0;
    ag_stale = 0;
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

let ingest agg rep =
  if rep.fr_version <> agg.ag_version then
    { agg with ag_stale = agg.ag_stale + 1 }
  else
    (* Decay everything first (including loads absent from this report),
       then add the fresh counts — ratios are decay-invariant. *)
    let loads = Iref.Map.map (decay_load default_decay) agg.ag_loads in
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
    { agg with ag_reports = agg.ag_reports + 1; ag_loads = loads }

(* Canonical order, by encoded bytes: the same report set folds the same
   way whoever reads it, so the daemon's round and an offline one over a
   copy of its store decide alike. *)
let fold_reports agg reports =
  List.map (fun r -> (encode_report r, r)) reports
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.fold_left (fun agg (_, r) -> ingest agg r) agg

(* The stored blob is the published state alone; the fold is recomputed
   from the persisted reports whenever it is read. *)
let encode_aggregate agg =
  let b = Bin.writer () in
  Bin.w_int b agg.ag_version;
  Store.w_list b (Iref.Map.bindings agg.ag_overrides)
    (fun b (iref, (lk : Ssp.Adapt.load_knob)) ->
      Store.w_iref b iref;
      Bin.w_bool b lk.Ssp.Adapt.lk_skip;
      Bin.w_u8 b
        (match lk.Ssp.Adapt.lk_model with
        | `Keep -> 0
        | `Basic -> 1
        | `Chaining -> 2);
      Bin.w_int b lk.Ssp.Adapt.lk_unroll);
  Bin.w_str b agg.ag_last_action;
  Store.seal_kind ~kind:Store.kind_feedback_aggregate (Bin.contents b)

let decode_aggregate blob =
  let r =
    Bin.reader (Store.unseal_kind ~kind:Store.kind_feedback_aggregate blob)
  in
  let ag_version = Bin.r_int r in
  let ag_overrides =
    Store.r_list r (fun r ->
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
  Bin.expect_end r;
  { empty_aggregate with ag_version; ag_overrides; ag_last_action }

let aggregate_key_of_hashes ~fingerprint prog_hash profile_hash =
  Store.cache_key
    [
      "feedback";
      string_of_int Store.format_version;
      prog_hash;
      profile_hash;
      fingerprint;
      Ssp.Adapt.knobs_string Ssp.Adapt.default_knobs;
    ]

let aggregate_key ~config prog profile =
  aggregate_key_of_hashes
    ~fingerprint:(Ssp_machine.Config.fingerprint config)
    (Store.hash_program prog) (Store.hash_profile profile)

(* The published state stored under a key: the one lookup the serving
   path, the daemon's staleness count and every fold share. No entry is
   version 0. *)
let published_at cache key =
  Store.Cache.get cache key ~decode:decode_aggregate
  |> Option.value ~default:empty_aggregate

(* ---- the one request pipeline ---- *)

(* Hashing prints the whole program, and the profile is read or
   collected, so a request resolves its program once and names every
   entry from the result. *)
type resolved = {
  rs_prog : Ssp_ir.Prog.t;
  rs_config : Ssp_machine.Config.t;
  rs_fingerprint : string;
  rs_prog_hash : string;
  rs_profile : Ssp_profiling.Profile.t;
  rs_profile_hash : string;
  rs_profile_key : string;
  rs_agg_key : string;
}

let resolve cache ~config prog =
  let fingerprint = Ssp_machine.Config.fingerprint config in
  let prog_hash = Store.hash_program prog in
  let profile_key = Store.profile_key_of_hash ~fingerprint prog_hash in
  let profile =
    match Store.Cache.get cache profile_key ~decode:Store.decode_profile with
    | Some p -> p
    | None ->
      let p = Ssp_profiling.Collect.collect ~config prog in
      Store.Cache.put cache profile_key (Store.encode_profile p);
      p
  in
  let profile_hash = Store.hash_profile profile in
  { rs_prog = prog; rs_config = config; rs_fingerprint = fingerprint;
    rs_prog_hash = prog_hash; rs_profile = profile;
    rs_profile_hash = profile_hash; rs_profile_key = profile_key;
    rs_agg_key = aggregate_key_of_hashes ~fingerprint prog_hash profile_hash }

let published cache rs = published_at cache rs.rs_agg_key

let status_string = function `Hit -> "hit" | `Miss -> "miss" | `Off -> "off"

type served = {
  sv_text : string;
  sv_report : Ssp.Report.t;
  sv_result : Ssp.Adapt.result Lazy.t;
  sv_profile : Ssp_profiling.Profile.t;
  sv_status : [ `Hit | `Miss | `Off ];
  sv_keys : string list;
}

(* The one lookup-or-compute path of an adapted entry, at a tuning
   version (none is the untuned artifact). A hit serves the stored text
   and report and parses nothing; the program is parsed, and the
   delinquent loads re-identified, only when a caller forces the result.
   A miss runs the post-pass and prints the program once, for the blob
   and the reply. *)
let served_at cache ?jobs rs tuning =
  let key =
    Store.adapted_key_of_hashes
      ?tuning:
        (Option.map (fun (v, o) -> (v, Ssp.Adapt.overrides_string o)) tuning)
      ~fingerprint:rs.rs_fingerprint rs.rs_prog_hash rs.rs_profile_hash
  in
  let text, report, result, status =
    match Store.get_adapted cache key with
    | Some (text, report, prefetch_map) ->
      let result =
        lazy
          { Ssp.Adapt.prog = Store.parse_adapted text; report; choices = [];
            prefetch_map;
            delinquent =
              Ssp.Delinquent.identify
                ~coverage:Ssp.Adapt.default_knobs.Ssp.Adapt.coverage
                rs.rs_prog rs.rs_profile }
      in
      (text, report, result, `Hit)
    | None ->
      let r =
        Ssp.Adapt.run ?jobs ?overrides:(Option.map snd tuning)
          ~config:rs.rs_config rs.rs_prog rs.rs_profile
      in
      (Store.put_adapted cache key r, r.Ssp.Adapt.report, Lazy.from_val r,
       `Miss)
  in
  { sv_text = text; sv_report = report; sv_result = result;
    sv_profile = rs.rs_profile; sv_status = status;
    sv_keys = [ rs.rs_profile_key; key ] }

(* Version 0 (or no aggregate at all) serves the untuned artifact under
   the original cache key; any later version serves the immutable
   version-stamped artifact the tuner published. The status is the adapt
   lookup's: that is the expensive artifact, and the one whose hit makes
   the reply byte-identical-but-fast. *)
let adapt ?cache ?jobs ~config prog =
  match cache with
  | None ->
    let profile = Ssp_profiling.Collect.collect ~config prog in
    let r = Ssp.Adapt.run ?jobs ~config prog profile in
    { sv_text = Ssp_ir.Asm.to_string r.Ssp.Adapt.prog;
      sv_report = r.Ssp.Adapt.report; sv_result = Lazy.from_val r;
      sv_profile = profile; sv_status = `Off; sv_keys = [] }
  | Some c ->
    let rs = resolve c ~config prog in
    let agg = published c rs in
    served_at c ?jobs rs
      (if agg.ag_version > 0 then Some (agg.ag_version, agg.ag_overrides)
       else None)

(* ---- derived ratios ---- *)

let frac = Attrib.ratio

(* Attribution counts issued / redundant / dropped disjointly: a
   prefetch squashed because its line was already present is "redundant"
   and never "issued". Ratios therefore run over all attempts. *)
let attempts a = a.al_issued +. a.al_redundant +. a.al_dropped
let redundant_frac a = frac a.al_redundant (attempts a)
(* The chronically-late signal. *)
let late_frac a = frac a.al_late (a.al_useful +. a.al_late)
let accuracy a = Attrib.accuracy ~useful:a.al_useful ~attempts:(attempts a)

let coverage_frac a =
  Attrib.coverage ~useful:a.al_useful ~late:a.al_late
    ~accesses:a.al_demand_accesses ~hits:a.al_demand_hits

let timeliness a = Attrib.timeliness ~useful:a.al_useful ~late:a.al_late

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
let step_load (cur : Ssp.Adapt.load_knob) a :
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
        else max 1 Ssp.Adapt.default_knobs.Ssp.Adapt.unroll
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
    ?(min_samples = default_min_samples) agg =
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
          match step_load cur a with
          | None -> (ov, actions)
          | Some (knob, what, why) ->
            ( Iref.Map.add load knob ov,
              { act_load = load; act_what = what; act_why = why } :: actions ))
      agg.ag_loads
      (agg.ag_overrides, [])
    |> fun (ov, actions) -> (ov, List.rev actions)

let publish agg ~overrides ~actions =
  let summary =
    Printf.sprintf "v%d: %s" (agg.ag_version + 1)
      (String.concat "; " (List.map action_to_string actions))
  in
  {
    empty_aggregate with
    ag_version = agg.ag_version + 1;
    ag_overrides = overrides;
    ag_last_action = summary;
  }

type tuned = {
  td_aggregate : aggregate;
  td_actions : action list;
  td_result : Ssp.Adapt.result;
  td_status : [ `Hit | `Miss | `Off ];
}

(* Plan on a fold and, when the plan moves, publish version N+1: the
   post-pass re-runs under the version-stamped key, and the new
   published state replaces the old one under the resolved program's
   aggregate key. *)
let tune_fold cache ?min_reports ?min_samples rs agg =
  let overrides, actions = plan ?min_reports ?min_samples agg in
  if actions = [] then None
  else
    let pub = publish agg ~overrides ~actions in
    let sv = served_at cache rs (Some (pub.ag_version, overrides)) in
    Store.Cache.put cache rs.rs_agg_key (encode_aggregate pub);
    Some
      { td_aggregate = pub; td_actions = actions;
        td_result = Lazy.force sv.sv_result; td_status = sv.sv_status }

let tune_reports ~cache ?min_reports ?min_samples ~config prog reports =
  let rs = resolve cache ~config prog in
  tune_fold cache ?min_reports ?min_samples rs
    (fold_reports (published cache rs) reports)

(* ---- per-workload rounds over a store ---- *)

let reports_in_store cache =
  let kind = Store.kind_feedback_report in
  Store.Cache.keys cache
  |> List.filter_map (fun key ->
         match
           Option.map decode_report (Store.Cache.find_kind cache ~kind key)
         with
         | rep -> rep
         | exception _ -> None)

type workload = Suite.program * int * string

let workload_of rep = (rep.fr_prog, rep.fr_scale, rep.fr_pipeline)

let reports_of w reports = List.filter (fun r -> workload_of r = w) reports

let fold_workload cache ~key w =
  fold_reports (published_at cache key) (reports_of w (reports_in_store cache))

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

(* One round on one workload's persisted reports, its program resolved. *)
let tune_on ?min_reports ?min_samples cache rs (id, scale, pipeline) reports =
  let fold = fold_reports (published cache rs) reports in
  let tuned = tune_fold cache ?min_reports ?min_samples rs fold in
  {
    st_prog = id;
    st_scale = scale;
    st_pipeline = pipeline;
    st_reports = fold.ag_reports + fold.ag_stale;
    st_aggregate = (match tuned with Some t -> t.td_aggregate | None -> fold);
    st_tuned = tuned;
  }

let tune_workload ?min_reports ?min_samples cache rs w =
  tune_on ?min_reports ?min_samples cache rs w
    (reports_of w (reports_in_store cache))

(* One scan of the store per round: rounds publish aggregates and
   artifacts, never reports, so every workload's reports are read once. *)
let tune_store ?min_reports ?min_samples cache =
  let reports = reports_in_store cache in
  List.map workload_of reports
  |> List.sort_uniq compare
  |> List.map (fun ((id, scale, pipeline) as w) ->
         let config = config_of_pipeline pipeline in
         let prog = Suite.compile ~pass:"feedback" id ~scale in
         tune_on ?min_reports ?min_samples cache (resolve cache ~config prog) w
           (reports_of w reports))

(* ---- the explain view ---- *)

let knob_string (k : Ssp.Adapt.load_knob) =
  String.concat ","
    ((if k.Ssp.Adapt.lk_skip then [ "skip" ] else [])
    @ (match k.Ssp.Adapt.lk_model with
      | `Keep -> []
      | `Basic -> [ "model=basic" ]
      | `Chaining -> [ "model=chaining" ])
    @
    if k.Ssp.Adapt.lk_unroll > 0 then
      [ Printf.sprintf "unroll=%d" k.Ssp.Adapt.lk_unroll ]
    else [])

let explain_header agg =
  if agg.ag_version = 0 && agg.ag_reports + agg.ag_stale = 0 then
    "feedback: no fleet aggregate for this workload/config"
  else
    Printf.sprintf "feedback: v%d  %d reports (%d stale)%s" agg.ag_version
      agg.ag_reports agg.ag_stale
      (if agg.ag_last_action = "" then ""
       else "  last action " ^ agg.ag_last_action)

let explain_cell agg iref =
  let tuned =
    match Iref.Map.find_opt iref agg.ag_overrides with
    | Some k when k <> Ssp.Adapt.keep_knob -> "  tuned[" ^ knob_string k ^ "]"
    | _ -> ""
  in
  match Iref.Map.find_opt iref agg.ag_loads with
  | Some al ->
    Some
      (Printf.sprintf
         "fleet cov %.1f%%  acc %.1f%%  timely %.1f%%  (%.0f issues)%s"
         (100. *. coverage_frac al) (100. *. accuracy al)
         (100. *. timeliness al) (attempts al) tuned)
  | None ->
    if tuned <> "" then Some ("no fresh fleet samples" ^ tuned) else None
