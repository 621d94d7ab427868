(* The offline workloads.

   suite-full: three of the seven paper kernels (health, mst, mcf) at the
   quick setting (scale 3, caches /16). Each kernel is compiled, profiled,
   adapted for the in-order and the OOO machine, and simulated full-detail
   as baseline and adapted on both — Figure 8's core. Most host time is in
   the detailed cycle cores. The other four kernels take 3-6 s each on a
   2-vCPU Xeon VM, too long to repeat several times within one run.

   corpus-sampled: seeded gen: kernels at scale 8 (caches /16), compiled,
   profiled, adapted and simulated in-order with the default sampling
   windows, baseline and adapted. Most host time is functional execution:
   profile collection and the sampled simulator's fast-forward. The
   kernels are drawn from the benchmark seed, one skeleton family after
   another, until their dynamic instructions reach a fixed total, so every
   seed gives a pass of about the same work. Only kernels with a footprint
   in the lower third of the generator's range are drawn: larger working
   sets cost more host time per simulated instruction, and a few of them
   would make one seed's pass much dearer than another's. Within a family
   the kernels cycle through the generator's three pointer-chain depths,
   so every corpus mixes them alike.

   Every simulation's outputs must equal the original program's Funcsim
   outputs, computed during set-up, and a kernel simulated again in a
   later pass must give the same cycle counts.

   The pass time is the sum over stages — each public call on each
   program — of that stage's median CPU time at the reference host speed
   (see Meter), over the passes of the run. *)

open Ssp_machine
module E = Ssp_harness.Experiment

type kind = Suite_full | Corpus_sampled

type plan = {
  kind : kind;
  setting : E.setting;
  suite_kernels : string list;  (** suite-full: which paper kernels *)
  corpus_minstr : float;
      (** corpus-sampled: millions of dynamic instructions the corpus
          reaches *)
}

let plan ~tiny kind =
  match (kind, tiny) with
  | Suite_full, false ->
    { kind; setting = E.quick; suite_kernels = [ "health"; "mst"; "mcf" ];
      corpus_minstr = 0. }
  | Suite_full, true ->
    { kind; setting = { E.quick with scale = 1 }; suite_kernels = [ "health"; "mcf" ];
      corpus_minstr = 0. }
  | Corpus_sampled, false ->
    { kind; setting = { E.quick with scale = 8; label = "corpus" };
      suite_kernels = []; corpus_minstr = 36. }
  | Corpus_sampled, true ->
    { kind; setting = { E.quick with scale = 1; label = "corpus" };
      suite_kernels = []; corpus_minstr = 0.3 }

type input = {
  name : string;
  source : string;
  reference : int64 list;  (** Funcsim outputs of the original program *)
  instrs : int;  (** its main-thread dynamic instructions *)
}

let prepare ~name source =
  let prog = Ssp_minic.Frontend.compile source in
  let r = Ssp_sim.Funcsim.run prog in
  { name; source; reference = r.Ssp_sim.Funcsim.outputs;
    instrs = r.Ssp_sim.Funcsim.instrs }

let max_footprint = 1024

(* See Meter. *)
let meter_power = 1.5

let corpus_inputs p ~seed =
  let target = int_of_float (p.corpus_minstr *. 1e6) in
  let families = Ssp_workloads.Gen.[| List_walk; Tree_walk; Hash_walk |] in
  let rec next_of family ~depth j =
    let g = Seeds.derive ~seed ~stream:1 j in
    let params = Ssp_workloads.Gen.params_of_seed g in
    if params.skeleton = family && params.depth = depth
       && params.footprint < max_footprint
    then (g, j + 1)
    else next_of family ~depth (j + 1)
  in
  let rec fill acc total j k =
    if total >= target && acc <> [] then Array.of_list (List.rev acc)
    else
      let g, j = next_of families.(k mod 3) ~depth:(1 + (k / 3 mod 3)) j in
      let w = Ssp_workloads.Gen.workload ~seed:g in
      let inp =
        prepare ~name:w.Ssp_workloads.Workload.name
          (w.Ssp_workloads.Workload.source p.setting.E.scale)
      in
      fill (inp :: acc) (total + inp.instrs) j (k + 1)
  in
  fill [] 0 0 0

let setup p ~seed =
  match p.kind with
  | Suite_full ->
    List.filter
      (fun (w : Ssp_workloads.Workload.t) -> List.mem w.name p.suite_kernels)
      Ssp_workloads.Suite.all
    |> List.map (fun (w : Ssp_workloads.Workload.t) ->
           prepare ~name:w.name (w.source p.setting.E.scale))
    |> Array.of_list
  | Corpus_sampled -> corpus_inputs p ~seed

(* Per-layer counts gathered while a pass runs. *)
type acc = {
  mutable programs : int;
  mutable static_instrs : int;
  mutable adapted_instrs : int;
  mutable delinquent : int;
  mutable slices : int;
  mutable degraded : int;
  mutable profile_instrs : int;
  mutable io_instrs : int;
  mutable ooo_instrs : int;
  mutable sampled_instrs : int;
  mutable spec_instrs : int;
  mutable adapted_main_instrs : int;
  mutable sim_words : float;
  mutable sim_cycles : int;
  mutable useful : int;
  mutable issued_total : int;
  mutable covered : int;
  mutable would_be : int;
  mutable spawns : int;
  mutable denied : int;
}

let new_acc () =
  {
    programs = 0; static_instrs = 0; adapted_instrs = 0; delinquent = 0;
    slices = 0; degraded = 0; profile_instrs = 0; io_instrs = 0;
    ooo_instrs = 0; sampled_instrs = 0; spec_instrs = 0;
    adapted_main_instrs = 0; sim_words = 0.; sim_cycles = 0; useful = 0;
    issued_total = 0; covered = 0; would_be = 0; spawns = 0; denied = 0;
  }

let add_attrib acc (s : Ssp_sim.Attrib.summary) =
  List.iter
    (fun (l : Ssp_sim.Attrib.load_summary) ->
      acc.useful <- acc.useful + l.ls_useful;
      acc.issued_total <-
        acc.issued_total + l.ls_issued + l.ls_redundant + l.ls_dropped;
      acc.covered <- acc.covered + l.ls_useful + l.ls_late;
      acc.would_be <-
        acc.would_be + l.ls_demand_accesses - l.ls_demand_hits + l.ls_useful)
    s.Ssp_sim.Attrib.loads;
  acc.denied <- acc.denied + s.Ssp_sim.Attrib.threads.Ssp_sim.Attrib.th_denied

exception Check of string

(* One program through the whole pipeline. Returns the simulated
   speedups (in-order, and OOO on suite-full), every simulation's cycle
   count, and the CPU seconds of each stage at the reference host speed,
   in call order. With [attributed], the adapted in-order run carries
   prefetch-lifecycle attribution. *)
let run_program p acc ~attributed (inp : input) =
  let stages = ref [] in
  let stage name f =
    let r, scaled = Spans.span name (fun () -> Meter.timed ~power:meter_power f) in
    stages := scaled :: !stages;
    r
  in
  let io = E.config_for p.setting Config.In_order in
  let prog = stage "minic.compile" (fun () -> Ssp_minic.Frontend.compile inp.source) in
  let profile =
    stage "profiling.collect" (fun () ->
        Ssp_profiling.Collect.collect ~config:io prog)
  in
  let adapt config =
    stage "core.adapt" (fun () -> Ssp.Adapt.run ~config prog profile)
  in
  let sim name run ~adapted prog =
    let w0 = Gc.minor_words () in
    let s : Ssp_sim.Stats.t = stage name (fun () -> run prog) in
    acc.sim_words <- acc.sim_words +. (Gc.minor_words () -. w0);
    acc.sim_cycles <- acc.sim_cycles + s.cycles;
    (match name with
    | "sim.inorder" -> acc.io_instrs <- acc.io_instrs + s.main_instrs
    | "sim.ooo" -> acc.ooo_instrs <- acc.ooo_instrs + s.main_instrs
    | _ -> acc.sampled_instrs <- acc.sampled_instrs + s.main_instrs);
    if adapted then begin
      acc.spec_instrs <- acc.spec_instrs + s.spec_instrs;
      acc.adapted_main_instrs <- acc.adapted_main_instrs + s.main_instrs
    end;
    if s.outputs <> inp.reference then
      raise (Check (Printf.sprintf "%s: %s outputs differ from Funcsim" inp.name name));
    s
  in
  let r_io = adapt io in
  let attrib =
    if attributed then
      Some (Ssp_sim.Attrib.create ~prefetch_map:r_io.Ssp.Adapt.prefetch_map ())
    else None
  in
  let report = r_io.Ssp.Adapt.report in
  acc.programs <- acc.programs + 1;
  acc.static_instrs <- acc.static_instrs + Ssp_ir.Prog.instr_count prog;
  acc.adapted_instrs <-
    acc.adapted_instrs + Ssp_ir.Prog.instr_count r_io.Ssp.Adapt.prog;
  acc.delinquent <- acc.delinquent + report.Ssp.Report.n_delinquent;
  acc.slices <- acc.slices + List.length report.Ssp.Report.slices;
  acc.degraded <- acc.degraded + List.length report.Ssp.Report.diagnostics;
  acc.profile_instrs <-
    acc.profile_instrs + profile.Ssp_profiling.Profile.total_instrs;
  let speedup (b : Ssp_sim.Stats.t) (s : Ssp_sim.Stats.t) =
    float_of_int b.cycles /. float_of_int s.cycles
  in
  let io_pair name run =
    let base = sim name (run ?attrib:None io) ~adapted:false prog in
    let ssp = sim name (run ?attrib io) ~adapted:true r_io.Ssp.Adapt.prog in
    acc.spawns <- acc.spawns + ssp.spawns;
    Option.iter (fun a -> add_attrib acc (Ssp_sim.Attrib.summary a)) attrib;
    (base, ssp)
  in
  match p.kind with
  | Suite_full ->
    let ooo = E.config_for p.setting Config.Out_of_order in
    let r_ooo = adapt ooo in
    let base, ssp =
      io_pair "sim.inorder" (fun ?attrib c -> Ssp_sim.Inorder.run ?attrib c)
    in
    let obase = sim "sim.ooo" (Ssp_sim.Ooo.run ooo) ~adapted:false prog in
    let ossp =
      sim "sim.ooo" (Ssp_sim.Ooo.run ooo) ~adapted:true r_ooo.Ssp.Adapt.prog
    in
    ( (speedup base ssp,
       Some (speedup obase ossp),
       [ base.cycles; ssp.cycles; obase.cycles; ossp.cycles ]),
      List.rev !stages )
  | Corpus_sampled ->
    let sampling = Ssp_sim.Smt.default_sampling in
    let base, ssp =
      io_pair "sim.sampled" (fun ?attrib c ->
          Ssp_sim.Inorder.run ?attrib ~sampling c)
    in
    ((speedup base ssp, None, [ base.cycles; ssp.cycles ]), List.rev !stages)

type state = {
  plan : plan;
  inputs : input array;
  first : (float * float option * int list) option array;
      (** per input, the speedups and cycle counts of its first run *)
  mutable attempted : int;
  mutable failed : int;
}

let failure st why =
  st.failed <- st.failed + 1;
  if st.failed <= 5 then prerr_endline ("ledger: check failed: " ^ why)

(* Runs input [k] once; returns its host seconds and, if it passed its
   checks, the CPU seconds of each of its stages at the reference speed. *)
let operation st acc ~attributed k =
  let inp = st.inputs.(k) in
  st.attempted <- st.attempted + 1;
  Spans.with_op k @@ fun () ->
  let outcome, dur, _ =
    Spans.timed "program" (fun () ->
        match run_program st.plan acc ~attributed inp with
        | r -> Ok r
        | exception Check why -> Error why
        | exception e -> Error (inp.name ^ ": " ^ Printexc.to_string e))
  in
  let stages =
    match outcome with
    | Error why ->
      failure st why;
      None
    | Ok (((_, _, cycles) as r), stages) -> (
      match st.first.(k) with
      | None ->
        st.first.(k) <- Some r;
        Some stages
      | Some (_, _, first) when first = cycles -> Some stages
      | Some _ ->
        failure st (inp.name ^ ": cycle counts changed between passes");
        None)
  in
  (dur, stages)

let create plan inputs =
  let n = Array.length inputs in
  { plan; inputs; first = Array.make n None; attempted = 0; failed = 0 }

(* Round-robin over the inputs until [seconds] have passed and every
   input ran at least once, calling [between] after each whole pass.
   Returns the sum over stages of each stage's median. *)
let measure st ~seconds ~between =
  let n = Array.length st.inputs in
  let runs = Array.make n [] in
  let acc = new_acc () in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < n || Unix.gettimeofday () -. t0 < seconds do
    let k = !i mod n in
    (match operation st acc ~attributed:false k with
    | _, Some stages -> runs.(k) <- Array.of_list stages :: runs.(k)
    | _, None -> ());
    incr i;
    if !i mod n = 0 then between ()
  done;
  let medians = function
    | [] -> 0.
    | r :: _ as rs ->
      let s = ref 0. in
      Array.iteri (fun j _ -> s := !s +. Pct.median (List.map (fun r -> r.(j)) rs)) r;
      !s
  in
  Array.fold_left (fun s rs -> s +. medians rs) 0. runs

(* A corpus overshoots its instruction total by up to one kernel; its
   pass time is scaled to the total itself, so passes of different seeds
   measure the same work. *)
let pass_s st raw =
  match st.plan.kind with
  | Suite_full -> raw
  | Corpus_sampled ->
    let instrs = Array.fold_left (fun s inp -> s + inp.instrs) 0 st.inputs in
    raw *. st.plan.corpus_minstr *. 1e6 /. float_of_int instrs

let speedup_geomeans st =
  let io = ref [] and ooo = ref [] in
  Array.iter
    (function
      | Some (a, b, _) ->
        io := a :: !io;
        Option.iter (fun b -> ooo := b :: !ooo) b
      | None -> ())
    st.first;
  let g = function [] -> 0. | xs -> Pct.geomean xs in
  (g !io, g !ooo)

let ratio a b = if b = 0. then 0. else a /. b
let per_s instrs name = ratio (float_of_int instrs /. 1e6) (Spans.total_s name)

(* One traced pass; its per-layer metrics. *)
let traced_pass st ~untraced_pass_s =
  let n = Array.length st.inputs in
  let acc = new_acc () in
  Spans.reset ();
  Spans.tracing := true;
  let gc0 = Gc.quick_stat () in
  let traced_s = ref 0. in
  for k = 0 to n - 1 do
    traced_s :=
      !traced_s
      +.
      match operation st acc ~attributed:true k with
      | _, Some stages -> List.fold_left ( +. ) 0. stages
      | dur, None -> dur
  done;
  let gc1 = Gc.quick_stat () in
  Spans.tracing := false;
  let progs = float_of_int (max 1 acc.programs) in
  let _, ooo_speedup = speedup_geomeans st in
  let sim_s =
    Spans.total_s "sim.inorder" +. Spans.total_s "sim.ooo"
    +. Spans.total_s "sim.sampled"
  in
  [
    ( "sim_minstr_per_s",
      ratio
        (float_of_int (acc.io_instrs + acc.ooo_instrs + acc.sampled_instrs) /. 1e6)
        sim_s );
    ("ssp_speedup_ooo", ooo_speedup);
    ("minic.compile_ms", Spans.mean_ms "minic.compile");
    ("minic.static_instrs", float_of_int acc.static_instrs /. progs);
    ("profiling.collect_s", Spans.total_s "profiling.collect");
    ("profiling.minstr_per_s", per_s acc.profile_instrs "profiling.collect");
    ("core.adapt_ms", Spans.mean_ms "core.adapt");
    ("core.delinquent_loads", float_of_int acc.delinquent /. progs);
    ("core.slices", float_of_int acc.slices /. progs);
    ("core.degraded", float_of_int acc.degraded /. progs);
    ( "core.code_growth",
      ratio (float_of_int acc.adapted_instrs) (float_of_int acc.static_instrs) );
    ("sim.inorder.minstr_per_s", per_s acc.io_instrs "sim.inorder");
    ("sim.ooo.minstr_per_s", per_s acc.ooo_instrs "sim.ooo");
    ( "sim.spec_share",
      ratio (float_of_int acc.spec_instrs)
        (float_of_int (acc.spec_instrs + acc.adapted_main_instrs)) );
    ( "sim.minor_words_per_cycle",
      ratio acc.sim_words (float_of_int acc.sim_cycles) );
    ("sim.prefetch.useful", float_of_int acc.useful);
    ( "sim.prefetch.accuracy",
      ratio (float_of_int acc.useful) (float_of_int acc.issued_total) );
    ( "sim.prefetch.coverage",
      ratio (float_of_int acc.covered) (float_of_int acc.would_be) );
    ("sim.spawns", float_of_int acc.spawns);
    ("sim.spawn_denied", float_of_int acc.denied);
    ("sim.sampled.s", Spans.total_s "sim.sampled");
    ("sim.sampled.minstr_per_s", per_s acc.sampled_instrs "sim.sampled");
    ("telemetry.overhead", ratio !traced_s untraced_pass_s);
    ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
  ]
