open Ssp_machine
module T = Ssp_telemetry.Telemetry
module F = Ssp_fault.Fault

(* Simulator fault sites (see lib/fault): all of them perturb only the
   speculative machinery or the memory-system timing, so under any fault
   plan the main thread's architectural outputs stay bit-identical —
   the invariant the chaos harness checks. *)
let site_kill = F.site "sim.spec.kill"
let site_spawn_deny = F.site "sim.spawn.deny"
let site_spawn_delay = F.site "sim.spawn.delay"
let site_starve = F.site "sim.context.starve"
let site_chain_break = F.site "sim.chain.break"

(* Sampled simulation: alternate [detail_window] cycle-accurate main-thread
   instructions with [ff_window] functionally-warmed fast-forward ones. *)
type sampling = { detail_window : int; ff_window : int }

(* 10% detailed with a short period: many small windows average over
   program phases far better than a few large ones at the same ratio.
   Validated by the sampled-accuracy tests (IPC within a few percent of a
   full run on every suite workload). *)
let default_sampling = { detail_window = 500; ff_window = 4_500 }

(* splitmix64, for the fast-forward length jitter below. *)
let sm64 (st : int64 ref) =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let jitter_seed = 0x5350_4331L

(* Strictly periodic sampling resonates with loop periodicity (a window
   landing always on the same phase of an inner loop biases the estimate
   arbitrarily badly); drawing each fast-forward's length uniformly from
   [0.5, 1.5)x the nominal window de-correlates the sample points. The
   stream is seeded by a constant, so runs stay bit-reproducible. *)
let ff_jitter st ~window =
  let r = Int64.to_int (Int64.logand (sm64 st) 0xFFFFL) in
  let f = 0.5 +. (float_of_int r /. 65536.0) in
  max 1 (int_of_float (float_of_int window *. f))

type context = {
  thread : Thread.t;
  mutable redirect_until : int;
  reg_ready : int array;
  fill_ready : int array;
  mutable bundle_left : int;
  mutable last_chk_fire : int;
  mutable spawned_at : int;  (* cycle the current speculative thread began; -1 idle *)
  mutable spawn_src : Ssp_ir.Iref.t option;  (* Spawn instruction that bound it *)
  mutable spawn_target : string;  (* "fn#blk" label for timelines *)
  lay_fns : string array;  (* physical-equality keys of [lays], MRU first *)
  lays : Layout.entry array;
}

type machine = {
  cfg : Config.t;
  prog : Ssp_ir.Prog.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  bp : Bpred.t;
  lay : Layout.t;
  ctxs : context array;
  sel : context array;
  stats : Stats.t;
  mutable rr : int;
  delinquent_pc : bool array;
  mutable last_spawned : int;  (* context id bound by the latest try_spawn *)
  mutable ff : bool;  (* inside a fast-forward window *)
  attrib : Attrib.t option;
  tel_spawns : T.counter;
  tel_spawn_denied : T.counter;
  tel_watchdog_kills : T.counter;
}

let new_context id =
  {
    thread = Thread.create ~id;
    redirect_until = 0;
    reg_ready = Array.make Ssp_isa.Reg.count 0;
    fill_ready = Array.make 5 0;
    bundle_left = 0;
    last_chk_fire = min_int / 2;
    spawned_at = -1;
    spawn_src = None;
    spawn_target = "";
    lay_fns = Array.init 4 (fun _ -> String.make 1 '\000');
    lays = Array.make 4 Layout.dummy;
  }

let create ?attrib cfg prog =
  let ctxs = Array.init cfg.Config.n_contexts new_context in
  let main = ctxs.(0).thread in
  main.Thread.fn <- prog.Ssp_ir.Prog.entry;
  main.Thread.active <- true;
  Thread.set main Ssp_isa.Reg.sp Ssp_ir.Prog.stack_base;
  let lay = Layout.of_prog prog in
  let delinquent_pc = Array.make (max 1 lay.Layout.n_pcs) false in
  (match cfg.Config.memory_mode with
  | Config.Perfect_delinquent s ->
    Array.iteri
      (fun pc iref ->
        if Ssp_ir.Iref.Set.mem iref s then delinquent_pc.(pc) <- true)
      lay.Layout.irefs
  | Config.Normal | Config.Perfect_memory -> ());
  let hier = Hierarchy.create cfg in
  (match attrib with Some a -> Hierarchy.set_attrib hier a | None -> ());
  let stats = Stats.create () in
  Stats.ensure_sites stats lay.Layout.n_pcs;
  {
    cfg;
    prog;
    mem = Memory.create ();
    hier;
    bp = Bpred.create cfg;
    lay;
    ctxs;
    sel = Array.copy ctxs;
    stats;
    rr = 0;
    delinquent_pc;
    last_spawned = -1;
    ff = false;
    attrib;
    tel_spawns = T.counter "sim.spawns";
    tel_spawn_denied = T.counter "sim.spawn_denied";
    tel_watchdog_kills = T.counter "sim.watchdog_kills";
  }

(* The context's current layout entry, memoized in four move-to-front
   physical-equality slots, so a loop cycling through a few functions
   stays off the Hashtbl. *)
let lay_promote (ctx : context) i fn e =
  let fns = ctx.lay_fns and ls = ctx.lays in
  for j = i downto 1 do
    fns.(j) <- fns.(j - 1);
    ls.(j) <- ls.(j - 1)
  done;
  fns.(0) <- fn;
  ls.(0) <- e

let layout_of m (ctx : context) =
  let th = ctx.thread in
  let fn = th.Thread.fn in
  let fns = ctx.lay_fns in
  let e =
    if Array.unsafe_get fns 0 == fn then Array.unsafe_get ctx.lays 0
    else if Array.unsafe_get fns 1 == fn then begin
      let e = ctx.lays.(1) in
      lay_promote ctx 1 fn e;
      e
    end
    else if Array.unsafe_get fns 2 == fn then begin
      let e = ctx.lays.(2) in
      lay_promote ctx 2 fn e;
      e
    end
    else if Array.unsafe_get fns 3 == fn then begin
      let e = ctx.lays.(3) in
      lay_promote ctx 3 fn e;
      e
    end
    else begin
      let e = Layout.find m.lay fn in
      lay_promote ctx 3 fn e;
      e
    end
  in
  (* Fall-through: while [ins] is past the end of the current block, move
     to the next block in layout. *)
  let blocks = e.Layout.func.Ssp_ir.Prog.blocks in
  let n = Array.length blocks in
  while
    th.Thread.blk < n
    && th.Thread.ins >= Array.length blocks.(th.Thread.blk).Ssp_ir.Prog.ops
  do
    th.Thread.blk <- th.Thread.blk + 1;
    th.Thread.ins <- 0
  done;
  e

let free_count m =
  let n = ref 0 in
  Array.iteri
    (fun i c -> if i > 0 && not c.thread.Thread.active then incr n)
    m.ctxs;
  !n

(* The chk.c firing policy: a free context (or several, per config), and a
   refractory interval per triggering thread to bound flush costs. The
   caller must have set [cur] to the checking context. Never fires inside a
   fast-forward window (no timing context to spawn into; architecturally a
   chk.c that does not fire is a nop, so outputs are unaffected). *)
let chk_allowed m ~now (ctx : context) =
  (not m.ff)
  && free_count m >= m.cfg.Config.chk_min_free
  && now - ctx.last_chk_fire >= m.cfg.Config.chk_refractory
  && (not (F.fire site_starve))
  && (ctx.last_chk_fire <- now;
      true)

let free_context m =
  let n = Array.length m.ctxs in
  let rec go i =
    if i >= n then None
    else if not m.ctxs.(i).thread.Thread.active then Some m.ctxs.(i)
    else go (i + 1)
  in
  go 1

(* The end of a speculative occupancy: record its lifetime and emit its
   timeline slice. Idempotent per occupancy ([spawned_at] is reset). *)
let note_thread_end m (ctx : context) ~now ~watchdog =
  if ctx.spawned_at >= 0 then begin
    (match m.attrib with
    | Some a -> Attrib.thread_end a ~spawned_at:ctx.spawned_at ~now ~watchdog
    | None -> ());
    if T.events_on () then
      T.emit_complete ~cat:"spec_thread" ~pid:T.pid_sim
        ~tid:ctx.thread.Thread.id
        ~ts:(float_of_int ctx.spawned_at)
        ~dur:(float_of_int (max 0 (now - ctx.spawned_at)))
        ~args:
          [
            ("target", ctx.spawn_target);
            ("watchdog", if watchdog then "true" else "false");
          ]
        (if ctx.spawn_target = "" then "spec" else ctx.spawn_target);
    ctx.spawned_at <- -1;
    ctx.spawn_src <- None
  end

let try_spawn m ~now ~src ~fn ~blk ~live_in =
  match if F.fire site_spawn_deny then None else free_context m with
  | None ->
    T.incr m.tel_spawn_denied;
    (match m.attrib with Some a -> Attrib.spawn_denied a ~src | None -> ());
    false
  | Some ctx ->
    (* A context can be freed by the issue loop without the end having
       been noted (e.g. the previous occupant was killed this cycle). *)
    note_thread_end m ctx ~now ~watchdog:false;
    Thread.reset_for_spawn ctx.thread ~fn ~blk ~live_in
      ~rand_state:(Int64.of_int ((ctx.thread.Thread.id * 1103515245) + 12345));
    Array.fill ctx.reg_ready 0 (Array.length ctx.reg_ready) 0;
    Array.fill ctx.fill_ready 0 (Array.length ctx.fill_ready) 0;
    ctx.redirect_until <-
      now + m.cfg.Config.spawn_latency + m.cfg.Config.lib_latency
      + (if F.fire site_spawn_delay then 64 else 0);
    ctx.spawned_at <- now;
    ctx.spawn_src <- Some src;
    ctx.spawn_target <-
      (if m.attrib <> None || T.events_on () then
         fn ^ "#" ^ string_of_int blk
       else "");
    m.stats.Stats.spawns <- m.stats.Stats.spawns + 1;
    T.incr m.tel_spawns;
    (match m.attrib with Some a -> Attrib.spawned a ~src | None -> ());
    m.last_spawned <- ctx.thread.Thread.id;
    true

(* Fill [m.sel] with up to [issue_threads] eligible contexts — the
   non-speculative thread first (it has priority for fetch/issue slots),
   speculative contexts round-robin — and return how many. The scratch
   array replaces the per-cycle list the old selector consed. *)
let select_threads m ~eligible =
  let n = Array.length m.ctxs in
  let count = ref 0 in
  if eligible m.ctxs.(0) then begin
    m.sel.(0) <- m.ctxs.(0);
    count := 1
  end;
  for k = 0 to n - 2 do
    let i = 1 + ((m.rr + k) mod (n - 1)) in
    let c = m.ctxs.(i) in
    if !count < m.cfg.Config.issue_threads && eligible c then begin
      m.sel.(!count) <- c;
      incr count
    end
  done;
  m.rr <- (m.rr + 1) mod (max 1 (n - 1));
  !count

let level_rank = function
  | Hierarchy.L1 -> 1
  | Hierarchy.L2 -> 2
  | Hierarchy.L3 -> 3
  | Hierarchy.Mem -> 4

(* Deepest level-rank among the thread's outstanding fills (0 = none): the
   per-rank max ready cycle is outstanding iff it is still in the future.
   Replaces filtering a (level, ready) list every cycle. *)
let outstanding_rank (ctx : context) ~now =
  if ctx.fill_ready.(4) > now then 4
  else if ctx.fill_ready.(3) > now then 3
  else if ctx.fill_ready.(2) > now then 2
  else 0

(* A speculative demand load at a slice site that maps back to a
   delinquent load IS the prefetch for value-used targets (no lfetch is
   emitted for those); tag it so attribution sees it as an issue. *)
let pf_tag_of m (ctx : context) iref =
  match m.attrib with
  | Some a when ctx.thread.Thread.id <> 0 -> (
    match Attrib.target_of a iref with
    | Some target ->
      Some
        {
          Attrib.target;
          site = iref;
          ctx = ctx.thread.Thread.id;
          spawn_src = ctx.spawn_src;
        }
    | None -> None)
  | _ -> None

let demand_access m ~now ~ctx ~pc addr =
  let perfect = m.delinquent_pc.(pc) in
  (* Speculative-thread misses must not starve the main thread's demand
     misses out of the fill buffer. *)
  let low_priority = ctx.thread.Thread.id <> 0 in
  let o =
    if perfect then Hierarchy.perfect_hit m.hier ~now
    else
      match m.attrib with
      | None -> Hierarchy.demand m.hier ~now ~low_priority addr
      | Some _ ->
        let iref = Layout.iref_of m.lay pc in
        Hierarchy.access m.hier ~now ~low_priority
          ?pf_tag:(pf_tag_of m ctx iref) ~demand_iref:iref
          ~demand_main:(not low_priority) addr
  in
  if ctx.thread.Thread.id = 0 then
    Stats.record_load_pc m.stats ~pc o.Hierarchy.level
      ~partial:o.Hierarchy.partial;
  (* Track the fill for stall attribution if it is an L1 miss. *)
  (match o.Hierarchy.level with
  | Hierarchy.L1 -> ()
  | lvl ->
    let r = level_rank lvl in
    if o.Hierarchy.ready > ctx.fill_ready.(r) then
      ctx.fill_ready.(r) <- o.Hierarchy.ready);
  o

let watchdog_check m ~now ctx =
  let th = ctx.thread in
  if th.Thread.speculative && th.Thread.active then
    if th.Thread.instrs > m.cfg.Config.spec_watchdog then begin
      T.incr m.tel_watchdog_kills;
      th.Thread.active <- false;
      note_thread_end m ctx ~now ~watchdog:true
    end
    else if F.fire site_kill then begin
      (* Injected random spec-thread kill: ends the occupancy exactly the
         way a watchdog kill does, minus the watchdog counter. *)
      th.Thread.active <- false;
      note_thread_end m ctx ~now ~watchdog:true
    end

(* Fast-forward the main thread [instrs] architectural instructions with
   functional warming: memory state, outputs, caches and branch predictor
   advance; the clock does not. Live speculative threads are ended first
   (their timing context is meaningless across the gap; architecturally
   they never affect main-thread state). Returns the instruction count
   actually executed (the main thread may halt mid-window). *)
let fast_forward m (env : Exec.env) ~now ~instrs =
  m.ff <- true;
  Array.iteri
    (fun i (c : context) ->
      if i > 0 && c.thread.Thread.active then begin
        c.thread.Thread.active <- false;
        note_thread_end m c ~now ~watchdog:false
      end)
    m.ctxs;
  Hierarchy.reset_warm_filter m.hier;
  let n =
    Funcsim.exec (Funcsim.Warm (m.hier, m.bp)) m.lay env m.ctxs.(0).thread
      ~instrs
  in
  m.ff <- false;
  n
