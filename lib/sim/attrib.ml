(* Prefetch-lifecycle attribution.

   When an [Attrib.t] is attached to a simulation, every prefetch a
   speculative thread issues — an [lfetch], or a demand load at a slice
   site whose value feeds further slice computation (value-used targets
   emit no lfetch; the load itself is the prefetch) — is tagged with the
   static delinquent load it precomputes, the slice instruction that
   issued it, the hardware context, and the spawn site that started the
   thread. Each prefetch is then classified exactly once by what the
   main thread observes at its target line:

     useful         main-thread demand hit on a line a prefetch filled
     late           main-thread demand found the prefetch still in
                    flight (a partial hit: latency partly hidden)
     early_evicted  the prefetched line was evicted before any use
     redundant      the prefetch hit (or partially hit) at issue time —
                    the line was already present or in flight
     dropped        the fill buffer refused the prefetch (full, or the
                    demand-priority reserve kicked in)
     unused         still unclassified when the simulation ends

   Per delinquent load this yields the paper's three effectiveness
   axes: coverage (fraction of would-be misses a prefetch absorbed),
   accuracy (useful fraction of everything issued) and timeliness
   (fraction of covering prefetches that arrived whole). The same
   object accumulates speculative-thread lifetimes and per-spawn-site
   accept/deny counts, so `sspc explain` can join profile → slice →
   trigger → simulated effect.

   All recording is passive bookkeeping keyed off the simulator's own
   events; attaching an [Attrib.t] never changes timing or outputs. *)

module T = Ssp_telemetry.Telemetry
module Iref = Ssp_ir.Iref

type cls = Useful | Late | Early_evicted | Redundant | Dropped

type tag = {
  target : Iref.t; (* the delinquent load this prefetch precomputes *)
  site : Iref.t; (* the slice instruction that issued it *)
  ctx : int; (* hardware context of the issuing thread *)
}

type pf_state = In_flight | Filled

type pf = {
  tag : tag;
  issued_at : int;
  mutable state : pf_state;
  mutable filled_at : int;
}

type acct = {
  mutable issued : int; (* fills actually allocated *)
  mutable useful : int;
  mutable late : int;
  mutable early_evicted : int;
  mutable redundant : int;
  mutable dropped : int;
  mutable unused : int;
  mutable lead_sum : int; (* cycles between fill and first use (useful) *)
  mutable late_wait_sum : int; (* residual latency the main thread ate (late) *)
  mutable demand_accesses : int; (* main-thread accesses of the target load *)
  mutable demand_hits : int;
  lead_counts : int array; (* lead-time distribution, telemetry hist layout *)
  mutable lead_min : int;
  mutable lead_max : int;
}

let acct_create () =
  {
    issued = 0;
    useful = 0;
    late = 0;
    early_evicted = 0;
    redundant = 0;
    dropped = 0;
    unused = 0;
    lead_sum = 0;
    late_wait_sum = 0;
    demand_accesses = 0;
    demand_hits = 0;
    lead_counts = Array.make T.hist_bucket_count 0;
    lead_min = max_int;
    lead_max = 0;
  }

type site = { mutable s_spawns : int; mutable s_denied : int }

type t = {
  prefetch_map : Iref.t Iref.Map.t; (* emitted prefetch site -> target load *)
  targets : Iref.Set.t; (* the delinquent loads under attribution *)
  lines : (int, pf) Hashtbl.t; (* line address -> outstanding prefetch *)
  accts : acct Iref.Tbl.t; (* per target load *)
  sites : site Iref.Tbl.t; (* per spawn site *)
  mutable spawns : int;
  mutable denied : int;
  mutable threads_ended : int;
  mutable watchdog_kills : int;
  mutable lifetime_sum : int;
  mutable lifetime_max : int;
  tel_useful : T.counter;
  tel_late : T.counter;
  tel_early_evicted : T.counter;
  tel_redundant : T.counter;
  tel_dropped : T.counter;
}

let create ?(prefetch_map = Iref.Map.empty) ?(targets = Iref.Set.empty) () =
  (* Any mapped target is implicitly under attribution. *)
  let targets =
    Iref.Map.fold (fun _ tgt s -> Iref.Set.add tgt s) prefetch_map targets
  in
  {
    prefetch_map;
    targets;
    lines = Hashtbl.create 256;
    accts = Iref.Tbl.create 8;
    sites = Iref.Tbl.create 8;
    spawns = 0;
    denied = 0;
    threads_ended = 0;
    watchdog_kills = 0;
    lifetime_sum = 0;
    lifetime_max = 0;
    tel_useful = T.counter "sim.pf.useful";
    tel_late = T.counter "sim.pf.late";
    tel_early_evicted = T.counter "sim.pf.early_evicted";
    tel_redundant = T.counter "sim.pf.redundant";
    tel_dropped = T.counter "sim.pf.dropped";
  }

let target_of t site = Iref.Map.find_opt site t.prefetch_map

let acct t load =
  match Iref.Tbl.find_opt t.accts load with
  | Some a -> a
  | None ->
    let a = acct_create () in
    Iref.Tbl.replace t.accts load a;
    a

let site t src =
  match Iref.Tbl.find_opt t.sites src with
  | Some s -> s
  | None ->
    let s = { s_spawns = 0; s_denied = 0 } in
    Iref.Tbl.replace t.sites src s;
    s

(* ---- prefetch lifecycle (driven by Hierarchy) ---- *)

let classify t tag c =
  let a = acct t tag.target in
  match c with
  | Useful -> a.useful <- a.useful + 1; T.incr t.tel_useful
  | Late -> a.late <- a.late + 1; T.incr t.tel_late
  | Early_evicted ->
    a.early_evicted <- a.early_evicted + 1;
    T.incr t.tel_early_evicted
  | Redundant -> a.redundant <- a.redundant + 1; T.incr t.tel_redundant
  | Dropped -> a.dropped <- a.dropped + 1; T.incr t.tel_dropped

(* A new fill was allocated for a tagged prefetch. A previous record on
   the same line is necessarily a filled prefetch whose line has since
   been evicted (an in-flight fill would have given a partial hit, i.e.
   the redundant path): settle it as early-evicted first. *)
let prefetch_issued t tag ~line ~now =
  (match Hashtbl.find_opt t.lines line with
  | Some old -> classify t old.tag Early_evicted
  | None -> ());
  Hashtbl.replace t.lines line
    { tag; issued_at = now; state = In_flight; filled_at = max_int };
  let a = acct t tag.target in
  a.issued <- a.issued + 1

let prefetch_redundant t tag = classify t tag Redundant
let prefetch_dropped t tag = classify t tag Dropped

let fill_retired t ~line ~now =
  match Hashtbl.find_opt t.lines line with
  | Some pf when pf.state = In_flight ->
    pf.state <- Filled;
    pf.filled_at <- now
  | _ -> ()

(* A main-thread demand access settles the line's outstanding prefetch,
   and accumulates hit/miss accounting when the access is one of the
   delinquent loads themselves. Speculative-thread accesses never
   classify (a helper touching its own prefetched line is not a use). *)
let demand_use t ?iref ~main ~line ~hit ~partial ~now ~ready () =
  (match iref with
  | Some i when main && Iref.Set.mem i t.targets ->
    let a = acct t i in
    a.demand_accesses <- a.demand_accesses + 1;
    if hit then a.demand_hits <- a.demand_hits + 1
  | _ -> ());
  if main then
    match Hashtbl.find_opt t.lines line with
    | None -> ()
    | Some pf -> (
      match pf.state with
      | Filled ->
        Hashtbl.remove t.lines line;
        if hit then begin
          classify t pf.tag Useful;
          let a = acct t pf.tag.target in
          let lead = Int.max 0 (now - pf.filled_at) in
          a.lead_sum <- a.lead_sum + lead;
          (* The distribution uses the telemetry histograms' fixed bucket
             layout, so reports from different clients merge exactly. *)
          let i = T.hist_index (float_of_int lead) in
          a.lead_counts.(i) <- a.lead_counts.(i) + 1;
          if lead < a.lead_min then a.lead_min <- lead;
          if lead > a.lead_max then a.lead_max <- lead
        end
        else
          (* The prefetched line is gone (evicted) — whether the demand
             now misses outright or is itself refetching, the prefetch
             did not survive to its use. *)
          classify t pf.tag Early_evicted
      | In_flight ->
        if partial then begin
          Hashtbl.remove t.lines line;
          classify t pf.tag Late;
          let a = acct t pf.tag.target in
          a.late_wait_sum <- a.late_wait_sum + Int.max 0 (ready - now)
        end)

(* ---- speculative-thread lifetimes (driven by Smt) ---- *)

let spawned t ~src =
  t.spawns <- t.spawns + 1;
  let s = site t src in
  s.s_spawns <- s.s_spawns + 1

let spawn_denied t ~src =
  t.denied <- t.denied + 1;
  let s = site t src in
  s.s_denied <- s.s_denied + 1

let thread_end t ~spawned_at ~now ~watchdog =
  t.threads_ended <- t.threads_ended + 1;
  if watchdog then t.watchdog_kills <- t.watchdog_kills + 1;
  let life = Int.max 0 (now - spawned_at) in
  t.lifetime_sum <- t.lifetime_sum + life;
  if life > t.lifetime_max then t.lifetime_max <- life

(* ---- finalization and summaries ---- *)

let finalize t =
  Hashtbl.iter
    (fun _ pf ->
      let a = acct t pf.tag.target in
      a.unused <- a.unused + 1)
    t.lines;
  Hashtbl.reset t.lines

type load_summary = {
  ls_load : Iref.t;
  ls_issued : int;
  ls_useful : int;
  ls_late : int;
  ls_early_evicted : int;
  ls_redundant : int;
  ls_dropped : int;
  ls_unused : int;
  ls_demand_accesses : int;
  ls_demand_hits : int;
  ls_coverage : float;
  ls_accuracy : float;
  ls_timeliness : float;
  ls_mean_lead : float; (* cycles a useful line waited before its use *)
  ls_mean_late_wait : float; (* residual cycles the main thread still paid *)
  ls_lead_hist : T.hist_summary; (* lead-time distribution of useful fills *)
}

type site_summary = { ss_site : Iref.t; ss_spawns : int; ss_denied : int }

type thread_summary = {
  th_spawns : int;
  th_denied : int;
  th_ended : int;
  th_watchdog_kills : int;
  th_mean_lifetime : float;
  th_max_lifetime : int;
}

type summary = {
  loads : load_summary list; (* sorted by load *)
  sites : site_summary list; (* sorted by site *)
  threads : thread_summary;
}

(* The one definition of each ratio, over plain or decayed counts: the
   feedback plane's fleet cells call these too. *)
let ratio n d = if d <= 0. then 0. else n /. d

(* Every useful prefetch turned a would-be miss into a hit, and the
   observed misses already count the late (partial-hit) uses. *)
let coverage ~useful ~late ~accesses ~hits =
  ratio (useful +. late) (accesses -. hits +. useful)

let accuracy ~useful ~attempts = ratio useful attempts
let timeliness ~useful ~late = ratio useful (useful +. late)

let load_summary_of load (a : acct) =
  let f = float_of_int in
  let fdiv n d = ratio (f n) (f d) in
  {
    ls_load = load;
    ls_issued = a.issued;
    ls_useful = a.useful;
    ls_late = a.late;
    ls_early_evicted = a.early_evicted;
    ls_redundant = a.redundant;
    ls_dropped = a.dropped;
    ls_unused = a.unused;
    ls_demand_accesses = a.demand_accesses;
    ls_demand_hits = a.demand_hits;
    ls_coverage =
      coverage ~useful:(f a.useful) ~late:(f a.late)
        ~accesses:(f a.demand_accesses) ~hits:(f a.demand_hits);
    ls_accuracy =
      accuracy ~useful:(f a.useful)
        ~attempts:(f (a.issued + a.redundant + a.dropped));
    ls_timeliness = timeliness ~useful:(f a.useful) ~late:(f a.late);
    ls_mean_lead = fdiv a.lead_sum a.useful;
    ls_mean_late_wait = fdiv a.late_wait_sum a.late;
    ls_lead_hist =
      {
        T.hs_n = a.useful;
        hs_sum = float_of_int a.lead_sum;
        hs_min = (if a.useful = 0 then infinity else float_of_int a.lead_min);
        hs_max =
          (if a.useful = 0 then neg_infinity else float_of_int a.lead_max);
        hs_counts = Array.copy a.lead_counts;
      };
  }

let summary t =
  let loads =
    Iref.Tbl.fold (fun load a acc -> load_summary_of load a :: acc) t.accts []
    |> List.sort (fun a b -> Iref.compare a.ls_load b.ls_load)
  in
  let sites =
    Iref.Tbl.fold
      (fun src s acc ->
        { ss_site = src; ss_spawns = s.s_spawns; ss_denied = s.s_denied } :: acc)
      t.sites []
    |> List.sort (fun a b -> Iref.compare a.ss_site b.ss_site)
  in
  {
    loads;
    sites;
    threads =
      {
        th_spawns = t.spawns;
        th_denied = t.denied;
        th_ended = t.threads_ended;
        th_watchdog_kills = t.watchdog_kills;
        th_mean_lifetime =
          (if t.threads_ended = 0 then 0.0
           else float_of_int t.lifetime_sum /. float_of_int t.threads_ended);
        th_max_lifetime = t.lifetime_max;
      };
  }

let find_load s iref =
  List.find_opt (fun ls -> Iref.equal ls.ls_load iref) s.loads
