open Ssp_analysis
module T = Ssp_telemetry.Telemetry
module F = Ssp_fault.Fault

let site_stale = F.site "adapt.profile.stale"

type result = {
  prog : Ssp_ir.Prog.t;
  report : Report.t;
  delinquent : Delinquent.t;
  choices : Select.choice list;
  prefetch_map : Ssp_ir.Iref.t Ssp_ir.Iref.Map.t;
      (* emitted prefetch site -> delinquent load, for attribution *)
}

let region_string r = Format.asprintf "%a" Regions.pp r

let report_of ?(diags = []) (d : Delinquent.t) (choices : Select.choice list)
    =
  let slices =
    List.map
      (fun (c : Select.choice) ->
        let sched = c.Select.schedule in
        let slice = sched.Schedule.slice in
        {
          Report.fn = slice.Slice.fn;
          region = region_string slice.Slice.region;
          model =
            (match c.Select.model with
            | Select.Chaining -> "chaining"
            | Select.Basic -> "basic");
          size = Slice.size slice;
          live_ins = List.length slice.Slice.live_ins;
          interprocedural = slice.Slice.interprocedural;
          targets = List.length slice.Slice.targets;
          triggers = List.length c.Select.triggers;
          trips = c.Select.trips;
          slack1 =
            (match c.Select.model with
            | Select.Chaining -> Schedule.slack_csp sched 1
            | Select.Basic -> Schedule.slack_bsp sched 1);
          available_ilp = sched.Schedule.available_ilp;
          spawn_condition =
            (match sched.Schedule.spawn_cond with
            | Schedule.Cond _ -> "computed"
            | Schedule.Predicted _ -> "predicted");
        })
      choices
  in
  {
    Report.slices;
    n_delinquent = List.length d.Delinquent.loads;
    coverage = d.Delinquent.covered;
    diagnostics = diags;
  }

(* The degradation ladder (tried top to bottom; a structured failure on
   one rung retries the load on the next, the last failure skips the
   load).  Rung order mirrors how much machinery each failure can blame:
   interprocedural binding first, then chaining, then even basic SP. *)
let ladder =
  [
    ("interprocedural", (* interproc *) true, (* chaining *) true);
    ("intraprocedural", false, true);
    ("basic", false, false);
  ]

(* One load through the ladder.  Decisions the fault engine takes inside
   are keyed by the load's [Iref.hash], so the outcome is a pure function
   of the load, whatever order the loads are visited in. *)
let select_one regions callgraph profile config (load : Delinquent.load) :
    Select.choice option * Report.diag list =
  let lstr = Ssp_ir.Iref.to_string load.Delinquent.iref in
  let key = Ssp_ir.Iref.hash load.Delinquent.iref in
  if F.fire ~key site_stale then
    ( None,
      [
        {
          Report.load = lstr;
          stage = "profile";
          action = "skip";
          detail = "profile stale: samples disagree with the binary \
                    [injected]";
        };
      ] )
  else begin
    let rec go diags = function
      | [] -> (None, List.rev diags)
      | (_rung, interproc, chaining) :: rest -> (
        match
          Select.choose ~interproc ~chaining regions callgraph profile config
            load
        with
        | choice -> (choice, List.rev diags)
        | exception Ssp_ir.Error.Error e ->
          let action =
            match rest with
            | (next, _, _) :: _ -> "degrade:" ^ next
            | [] -> "skip"
          in
          let d =
            {
              Report.load = lstr;
              stage = e.Ssp_ir.Error.pass;
              action;
              detail = Ssp_ir.Error.to_string e;
            }
          in
          go (d :: diags) rest
        | exception (Failure msg | Invalid_argument msg) ->
          (* Legacy unstructured failures: isolate them too, but don't
             bother degrading — they don't name a recoverable stage. *)
          ( None,
            List.rev
              ({ Report.load = lstr; stage = "select"; action = "skip";
                 detail = msg }
              :: diags) ))
    in
    go [] ladder
  end

(* Combine choices over the same region whose slices share dependence-graph
   nodes (§3.4.1): merge targets and live-ins, rebuild the schedule over
   the merged slice and re-decide the model and triggers (the combined
   slice shifts the basic/chaining trade-off — typically toward chaining,
   with one set of triggers instead of several). *)
let combine regions callgraph profile config (choices : Select.choice list) =
  let diags = ref [] in
  let note (c : Select.choice) what =
    diags :=
      {
        Report.load = Ssp_ir.Iref.to_string c.Select.load.Delinquent.iref;
        stage = "combine";
        action = "degrade:basic";
        detail = what;
      }
      :: !diags
  in
  let rec fold acc = function
    | [] -> List.rev acc
    | (c : Select.choice) :: rest -> (
      let slice_of (x : Select.choice) = x.Select.schedule.Schedule.slice in
      (* Slices over the same region always combine: they share the region's
         induction/recurrence structure even when a degenerate slice (an
         address that is directly a live-in) has no instructions to share. *)
      let mergeable (a : Select.choice) =
        (slice_of a).Slice.region = (slice_of c).Slice.region
        && String.equal (slice_of a).Slice.fn (slice_of c).Slice.fn
        && ((slice_of a).Slice.interprocedural
            = (slice_of c).Slice.interprocedural)
      in
      match List.partition mergeable acc with
      | [], _ -> fold (c :: acc) rest
      | host :: others, keep ->
        let merged_slice = Slice.merge (slice_of host) (slice_of c) in
        let sched =
          Schedule.build regions profile config ~trips:host.Select.trips
            merged_slice
        in
        (* The merged choice inherits the most conservative ladder rung of
           its parts: combining must never re-promote a model or binding a
           refusal already degraded.  [Select.refine] may lower the rung
           further (a refusal while re-deciding the merged model). *)
        let allow_interproc =
          host.Select.allow_interproc && c.Select.allow_interproc
        in
        let allow_chaining =
          host.Select.allow_chaining && c.Select.allow_chaining
        in
        let merged =
          Select.refine regions callgraph profile config
            { host with Select.schedule = sched; allow_interproc;
              allow_chaining }
        in
        if allow_chaining && not merged.Select.allow_chaining then
          note merged "chaining model refused for combined slice [injected]";
        if allow_interproc && not merged.Select.allow_interproc then
          note merged
            "interprocedural binding refused for combined slice [injected]";
        fold (merged :: (others @ keep)) rest)
  in
  let combined = fold [] choices in
  (combined, List.rev !diags)

let apply_choices ?(diags = []) prog ~config choices delinquent =
  let adapted = Ssp_ir.Prog.copy prog in
  let gen =
    T.with_span "adapt.codegen" (fun () -> Codegen.apply adapted config choices)
  in
  let diags =
    diags
    @ List.map
        (fun (load, e) ->
          {
            Report.load = Ssp_ir.Iref.to_string load;
            stage = "codegen";
            action = "drop-trigger";
            detail = Ssp_ir.Error.to_string e;
          })
        gen.Codegen.dropped
  in
  {
    prog = adapted;
    report = report_of ~diags delinquent choices;
    delinquent;
    choices;
    prefetch_map = gen.Codegen.prefetch_map;
  }

(* ---- per-load overrides (the feedback tuner's lever) ----

   Global knobs steer the whole pipeline; a [load_knob] adjusts one
   delinquent load. Skips are applied after selection but before
   combining (a skipped load never contributes to a merged slice);
   model/unroll adjustments apply after combining, to the choice whose
   primary load matches. Forcing chaining respects the degradation
   ladder: a load whose rung already refused chaining stays basic. *)

type load_knob = {
  lk_skip : bool;
  lk_model : [ `Keep | `Basic | `Chaining ];
  lk_unroll : int; (* 0 = keep the globally selected unroll *)
}

let keep_knob = { lk_skip = false; lk_model = `Keep; lk_unroll = 0 }

type overrides = load_knob Ssp_ir.Iref.Map.t

let no_overrides : overrides = Ssp_ir.Iref.Map.empty

(* Canonical, injective rendering — a cache-key component, like
   [knobs_string]. Map bindings iterate in key order, so the string is
   independent of insertion order; loads bound to the identity knob are
   dropped so "no effective override" renders as "". *)
let overrides_string (o : overrides) =
  Ssp_ir.Iref.Map.bindings o
  |> List.filter (fun (_, lk) -> lk <> keep_knob)
  |> List.map (fun (iref, lk) ->
         Printf.sprintf "%s:skip=%b,model=%s,unroll=%d"
           (Ssp_ir.Iref.to_string iref)
           lk.lk_skip
           (match lk.lk_model with
           | `Keep -> "keep"
           | `Basic -> "basic"
           | `Chaining -> "chaining")
           lk.lk_unroll)
  |> String.concat ";"

type knobs = {
  coverage : float;
  combining : bool;
  force_basic : bool;
  force_predict : bool;
  unroll : int;
}

let default_knobs =
  {
    coverage = 0.9;
    combining = true;
    force_basic = false;
    force_predict = false;
    unroll = 1;
  }

(* Canonical, injective rendering: part of the content-addressed cache
   key, so any knob change must change this string. %h renders the float
   exactly. *)
let knobs_string k =
  Printf.sprintf "coverage=%h;combining=%b;force_basic=%b;force_predict=%b;unroll=%d"
    k.coverage k.combining k.force_basic k.force_predict k.unroll

let run ?(knobs = default_knobs) ?(overrides = no_overrides) ~config prog
    profile =
  T.with_span "adapt" @@ fun () ->
  let delinquent = Delinquent.identify ~coverage:knobs.coverage prog profile in
  let regions = T.with_span "adapt.regions" (fun () -> Regions.compute prog) in
  let callgraph =
    T.with_span "adapt.callgraph" (fun () -> Callgraph.compute prog)
  in
  let selected =
    T.with_span "adapt.select" (fun () ->
        List.map
          (select_one regions callgraph profile config)
          delinquent.Delinquent.loads)
  in
  let choices = List.filter_map fst selected in
  let diags = ref (List.concat_map snd selected) in
  (* Feedback demotions to skip come off before combining, so a skipped
     load never contributes to a merged slice. *)
  let choices =
    if Ssp_ir.Iref.Map.is_empty overrides then choices
    else
      List.filter
        (fun (c : Select.choice) ->
          match
            Ssp_ir.Iref.Map.find_opt c.Select.load.Delinquent.iref overrides
          with
          | Some lk when lk.lk_skip ->
            diags :=
              !diags
              @ [
                  {
                    Report.load =
                      Ssp_ir.Iref.to_string c.Select.load.Delinquent.iref;
                    stage = "feedback";
                    action = "skip";
                    detail = "demoted: prefetches mostly redundant";
                  };
                ];
            false
          | _ -> true)
        choices
  in
  let choices =
    T.with_span "adapt.combine" (fun () ->
        if knobs.combining then begin
          let combined, cdiags =
            combine regions callgraph profile config choices
          in
          diags := !diags @ cdiags;
          combined
        end
        else choices)
  in
  if T.is_enabled () then begin
    T.count "adapt.slices" (List.length choices);
    List.iter
      (fun (c : Select.choice) ->
        T.record_hist "adapt.slice_size" (float_of_int (Slice.size c.Select.schedule.Schedule.slice));
        T.count "adapt.triggers" (List.length c.Select.triggers);
        match c.Select.model with
        | Select.Chaining -> T.count "adapt.model.chaining" 1
        | Select.Basic -> T.count "adapt.model.basic" 1)
      choices
  end;
  (* Ablation knobs (never taken by the normal pipeline). *)
  let choices =
    List.map
      (fun (c : Select.choice) ->
        let c =
          if knobs.force_basic && c.Select.model = Select.Chaining then begin
            let slice = c.Select.schedule.Schedule.slice in
            let triggers = Trigger.for_basic regions slice in
            { c with Select.model = Select.Basic; triggers }
          end
          else c
        in
        let c =
          if knobs.force_predict then
            let sched = c.Select.schedule in
            {
              c with
              Select.schedule =
                {
                  sched with
                  Schedule.spawn_cond =
                    Schedule.Predicted { depth = max 1 c.Select.trips };
                };
            }
          else c
        in
        { c with Select.unroll = max 1 knobs.unroll })
      choices
  in
  (* Per-load model/unroll overrides, applied last so they win over the
     global ablation knobs for the loads they name. Promotion to
     chaining is clamped by the degradation ladder ([allow_chaining]):
     the tuner can restore a model the ladder allows, never one a rung
     already refused. *)
  let choices =
    if Ssp_ir.Iref.Map.is_empty overrides then choices
    else
      List.map
        (fun (c : Select.choice) ->
          match
            Ssp_ir.Iref.Map.find_opt c.Select.load.Delinquent.iref overrides
          with
          | None -> c
          | Some lk ->
            let c =
              match lk.lk_model with
              | `Basic when c.Select.model = Select.Chaining ->
                let slice = c.Select.schedule.Schedule.slice in
                { c with Select.model = Select.Basic;
                  triggers = Trigger.for_basic regions slice }
              | `Chaining
                when c.Select.model = Select.Basic && c.Select.allow_chaining
                ->
                let slice = c.Select.schedule.Schedule.slice in
                { c with Select.model = Select.Chaining;
                  triggers = Trigger.for_chaining regions slice }
              | _ -> c
            in
            if lk.lk_unroll > 0 then { c with Select.unroll = lk.lk_unroll }
            else c)
        choices
  in
  apply_choices ~diags:!diags prog ~config choices delinquent
