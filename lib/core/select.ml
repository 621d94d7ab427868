open Ssp_analysis
module F = Ssp_fault.Fault

let site_interproc = F.site "adapt.interproc.refuse"
let site_chaining = F.site "adapt.chaining.refuse"

type model = Chaining | Basic

type choice = {
  schedule : Schedule.t;
  model : model;
  triggers : Trigger.t list;
  trips : int;
  reduced_misscycles : int;
  load : Delinquent.load;
  unroll : int;
      (* iterations one speculative thread precomputes; the automatic tool
         uses 1 (§3.2.1: "one chaining thread targets one iteration"), hand
         adaptation uses more *)
  allow_interproc : bool;
  allow_chaining : bool;
      (* the degradation-ladder rung this choice was approved under;
         [refine] must not re-promote past it when slices are combined *)
}

(* Fraction of a load's miss cycles a region must recover; §3.4.1
   reports low sensitivity to this value. *)
let cutoff = 0.3

(* How many region expansions outward are considered. *)
let max_region_depth = 3

let trips_of regions profile region fn =
  match Regions.loop_of regions region with
  | None ->
    let entries = max 1 (Ssp_profiling.Profile.block_freq profile fn 0) in
    (entries, 1)
  | Some loop ->
    let header_freq =
      Ssp_profiling.Profile.block_freq profile fn loop.Loops.header
    in
    let back_freq =
      List.fold_left
        (fun acc (src, _) ->
          acc + Ssp_profiling.Profile.block_freq profile fn src)
        0 loop.Loops.back_edges
    in
    let entries = max 1 (header_freq - back_freq) in
    (entries, max 1 (header_freq / entries))

(* Σ_{i=1..trips} min(mcpi, slack(i)) with slack(i) = s1·min(i, cap), in
   closed form to survive huge trip counts. [cap] bounds how far the chain
   can run ahead (hardware contexts limit a memory-serialized chain). *)
let reduced ?(cap = max_int) ~mcpi ~trips ~slack1 () =
  if slack1 <= 0 || mcpi <= 0 then 0
  else begin
    let sat = min cap (mcpi / slack1) in
    (* iterations 1..k gain slack1·i; beyond that slack plateaus *)
    let k = min trips sat in
    let ramp = slack1 * k * (k + 1) / 2 in
    let flat = max 0 (trips - k) * min mcpi (slack1 * sat) in
    ramp + flat
  end

let has_in_region_cut regions (s : Slice.t) =
  let blocks = Regions.blocks_of regions s.Slice.region in
  List.exists
    (fun (l : Slice.live_in) ->
      List.exists
        (fun (d : Ssp_ir.Iref.t) ->
          String.equal d.fn s.Slice.fn && List.mem d.blk blocks)
        l.Slice.def_sites)
    s.Slice.live_ins

let candidate_regions regions (load : Delinquent.load) =
  let rec up region acc depth =
    if depth > max_region_depth then List.rev acc
    else
      match Regions.parent regions region with
      | None -> List.rev acc
      | Some p -> up p (p :: acc) (depth + 1)
  in
  let innermost = Regions.innermost_at regions load.Delinquent.iref in
  innermost :: up innermost [] 1

(* Average miss cycles per execution over all targets of a slice. *)
let mcpi_of_slice profile (s : Slice.t) =
  List.fold_left
    (fun acc (t : Slice.target) ->
      match Ssp_profiling.Profile.load_stats profile t.Slice.load with
      | Some st when st.Ssp_profiling.Profile.accesses > 0 ->
        acc
        + st.Ssp_profiling.Profile.miss_cycles
          / st.Ssp_profiling.Profile.accesses
      | Some _ | None -> acc)
    0 s.Slice.targets

let decide_model ?(chaining = true) regions (cfg : Ssp_machine.Config.t)
    (sched : Schedule.t) ~trips ~entries ~mcpi =
  let slice = sched.Schedule.slice in
  let nlive = List.length slice.Slice.live_ins in
  (* Trigger overhead on the main thread (§3.3: communication slows the
     main thread; the flush is the §4.4.1 exception-like spawn cost). Basic
     SP pays a full trigger every iteration; chaining pays a 1-cycle nop
     check per iteration plus occasional re-seeds (estimated as one full
     trigger per 16 iterations). *)
  let full_trigger =
    cfg.Ssp_machine.Config.front_end_penalty
    + cfg.Ssp_machine.Config.spawn_latency + nlive + 2
  in
  let overhead_bsp = entries * trips * full_trigger in
  let overhead_csp = entries * trips * (1 + (full_trigger / 16)) in
  (* A chain whose critical sub-slice is dominated by a cache miss is
     memory-serialized: links live as long as the miss, so at most
     (contexts − 1) links are in flight and the lead plateaus. *)
  let serial_cap =
    if
      sched.Schedule.height_critical
      > 4 * cfg.Ssp_machine.Config.l1.Ssp_machine.Config.latency
    then cfg.Ssp_machine.Config.n_contexts - 1
    else max_int
  in
  let red_csp =
    (entries
    * reduced ~cap:serial_cap ~mcpi ~trips
        ~slack1:(Schedule.slack_csp sched 1) ())
    - overhead_csp
  in
  (* Basic SP's lookahead does not accumulate across iterations (each
     trigger restarts one iteration ahead), so unlike the chaining estimate
     its slack is flat. A whole-procedure slice that preserves an inner
     loop covers the whole traversal: its helper gains slack at the rate
     the main thread falls behind per inner iteration. *)
  let red_bsp =
    match Regions.loop_of regions slice.Slice.region with
    | Some _ ->
      (entries * trips * min mcpi (Schedule.slack_bsp sched 1)) - overhead_bsp
    | None -> (
      match sched.Schedule.inner with
      | Some inner ->
        let itrips = max 1 inner.Schedule.trips in
        (entries
        * reduced ~mcpi ~trips:itrips
            ~slack1:(max 1 (Schedule.slack_bsp sched 1 / itrips)) ())
        - (entries * full_trigger)
      | None ->
        (entries * min mcpi (Schedule.slack_bsp sched 1))
        - (entries * full_trigger))
  in
  let forced_basic =
    (not chaining)
    || has_in_region_cut regions slice
    || Regions.loop_of regions slice.Slice.region = None
    (* chaining needs something to chain: a recurrence the thread advances *)
    || sched.Schedule.order_critical = []
    || sched.Schedule.recurrence_regs = []
  in
  if forced_basic then (Basic, red_bsp)
  else if trips < 4 then (Basic, red_bsp)
  else if red_bsp >= red_csp then (Basic, red_bsp)
  else (Chaining, red_csp)

let triggers_for ?(interproc = true) regions callgraph profile model
    (slice : Slice.t) =
  match model with
  | Chaining -> (slice, Trigger.for_chaining regions slice)
  | Basic -> (
    match Regions.loop_of regions slice.Slice.region with
    | Some _ -> (slice, Trigger.for_basic regions slice)
    | None when not interproc -> (slice, Trigger.for_basic regions slice)
    | None -> (
      match Slicer.bind_at_callers regions callgraph profile slice with
      | Some (s', sites) -> (s', Trigger.for_call_sites sites)
      | None -> (slice, Trigger.for_basic regions slice)))

(* Combining can shift the model decision (typically toward chaining), so
   refusals apply here too: a refusal at this stage degrades the merged
   choice in place — there is no ladder to rerun — and lowers its ceiling
   so later merges cannot re-promote it. *)
let refine regions callgraph profile cfg (c : choice) =
  let sched = c.schedule in
  let slice = sched.Schedule.slice in
  let key = Ssp_ir.Iref.hash c.load.Delinquent.iref in
  let entries, trips =
    trips_of regions profile slice.Slice.region slice.Slice.fn
  in
  let mcpi = mcpi_of_slice profile slice in
  let model, red =
    decide_model ~chaining:c.allow_chaining regions cfg sched ~trips ~entries
      ~mcpi
  in
  let allow_chaining =
    c.allow_chaining
    && not (model = Chaining && F.fire ~key site_chaining)
  in
  let model, red =
    if model = Chaining && not allow_chaining then
      decide_model ~chaining:false regions cfg sched ~trips ~entries ~mcpi
    else (model, red)
  in
  let slice', triggers =
    triggers_for ~interproc:c.allow_interproc regions callgraph profile model
      slice
  in
  let allow_interproc =
    c.allow_interproc
    && not (slice'.Slice.interprocedural && F.fire ~key site_interproc)
  in
  let slice', triggers =
    if slice'.Slice.interprocedural && not allow_interproc then
      triggers_for ~interproc:false regions callgraph profile model slice
    else (slice', triggers)
  in
  {
    c with
    schedule = { sched with Schedule.slice = slice' };
    model;
    triggers;
    trips;
    reduced_misscycles = red;
    allow_interproc;
    allow_chaining;
  }

let choose ?(interproc = true) ?(chaining = true) regions callgraph profile
    cfg (load : Delinquent.load) =
  let key = Ssp_ir.Iref.hash load.Delinquent.iref in
  let evaluate region =
    match Slicer.slice_region regions profile ~region load with
    | None -> None
    | Some slice ->
      let fn = slice.Slice.fn in
      let entries, trips = trips_of regions profile region fn in
      let sched = Schedule.build regions profile cfg ~trips slice in
      let mcpi =
        load.Delinquent.miss_cycles / max 1 load.Delinquent.accesses
      in
      let model, red =
        decide_model ~chaining regions cfg sched ~trips ~entries ~mcpi
      in
      Some (slice, sched, model, red, trips)
  in
  let candidates = List.filter_map evaluate (candidate_regions regions load) in
  let threshold =
    int_of_float (cutoff *. float_of_int load.Delinquent.miss_cycles)
  in
  let best =
    List.fold_left
      (fun acc ((_, _, _, red, _) as c) ->
        match acc with
        | Some (_, _, _, b, _) when b >= red -> acc
        | _ -> Some c)
      None candidates
  in
  (* Innermost region meeting the threshold wins; otherwise the best
     region, preferring inner ones when the estimates are about the same
     (§3.4.1). *)
  let chosen =
    match
      List.find_opt (fun (_, _, _, red, _) -> red >= threshold) candidates
    with
    | Some c -> Some c
    | None -> (
      match best with
      | Some (_, _, _, bred, _) when bred > 0 ->
        List.find_opt
          (fun (_, _, _, red, _) ->
            float_of_int red >= 0.9 *. float_of_int bred)
          candidates
      | _ -> None)
  in
  match chosen with
  | None -> None
  | Some (slice, sched, model, red, trips) ->
    if red <= 0 then None
    else begin
      if model = Chaining && F.fire ~key site_chaining then
        Ssp_ir.Error.raise_error ~injected:true ~pass:"select"
          ~fn:slice.Slice.fn
          ~instr:(Ssp_ir.Iref.to_string load.Delinquent.iref)
          "chaining model refused";
      (* Interprocedural binding for whole-procedure slices. *)
      let slice', triggers =
        triggers_for ~interproc regions callgraph profile model slice
      in
      if slice'.Slice.interprocedural && F.fire ~key site_interproc then
        Ssp_ir.Error.raise_error ~injected:true ~pass:"select"
          ~fn:slice'.Slice.fn
          ~instr:(Ssp_ir.Iref.to_string load.Delinquent.iref)
          "interprocedural binding refused";
      if triggers = [] then None
      else begin
        let sched = { sched with Schedule.slice = slice' } in
        Some
          { schedule = sched; model; triggers; trips;
            reduced_misscycles = red; load; unroll = 1;
            allow_interproc = interproc; allow_chaining = chaining }
      end
    end
