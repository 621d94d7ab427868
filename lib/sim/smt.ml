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
  Int.max 1 (int_of_float (float_of_int window *. f))

type context = {
  thread : Thread.t;
  mutable redirect_until : int;
  mutable ready : int;  (* first cycle it can take a slot; max_int: never *)
  reg_ready : int array;
  fill_ready : int array;
  mutable bundle_left : int;
  mutable last_chk_fire : int;
  mutable spawned_at : int;  (* cycle the current speculative thread began; -1 idle *)
  mutable spawn_target : string;  (* "fn#blk" label for timelines *)
}

(* Sampled-window state: main-thread instructions left in the current
   detailed window, fast-forwarded instruction and estimated-cycle totals,
   and the measurement marks. Each fast-forward is extrapolated from the
   CPI of its own surrounding detailed windows (local, SMARTS-style), and
   the first third of every detailed window is detailed warming — executed
   cycle-accurately but excluded from the estimator, so the ramp-up of the
   drained fill buffer / pipeline after a fast-forward doesn't bias the CPI
   fast. Centered extrapolation: a fast-forwarded chunk is charged the
   average CPI of the detailed windows on BOTH sides (the one before is in
   [prev_cpi], the one after settles the [pending_k] instrs) — halves the
   error of chunks spanning a phase transition. *)
type window = {
  sampling : sampling option;
  mutable detail_left : int;
  mutable ff_total : int;
  mutable est_extra : float;
  mutable win_cycles0 : int;
  mutable win_instrs0 : int;
  mutable measuring : bool;
  jst : int64 ref;
  mutable pending_k : int;
  mutable prev_cpi : float;
}

type machine = {
  cfg : Config.t;
  prog : Ssp_ir.Prog.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  bp : Bpred.t;
  lay : Layout.t;
  ctxs : context array;
  sel : int array;
  stats : Stats.t;
  mutable rr : int;
  delinquent_pc : bool array;
  mutable last_spawned : int;  (* context id bound by the latest try_spawn *)
  mutable ff : bool;  (* inside a fast-forward window *)
  attrib : Attrib.t option;
  win : window;
  tel_spawns : T.counter;
  tel_spawn_denied : T.counter;
  tel_watchdog_kills : T.counter;
}

let new_context id =
  {
    thread = Thread.create ~id;
    redirect_until = 0;
    ready = max_int;
    reg_ready = Array.make Ssp_isa.Reg.count 0;
    fill_ready = Array.make 5 0;
    bundle_left = 0;
    last_chk_fire = min_int / 2;
    spawned_at = -1;
    spawn_target = "";
  }

let create ?attrib ~sampling cfg prog =
  let lay = Layout.of_prog prog in
  let ctxs = Array.init cfg.Config.n_contexts new_context in
  let main = ctxs.(0).thread in
  main.Thread.pc <-
    Layout.pc_of lay (Layout.find lay prog.Ssp_ir.Prog.entry) 0;
  main.Thread.active <- true;
  ctxs.(0).ready <- 0;
  Thread.set main Ssp_isa.Reg.sp Ssp_ir.Prog.stack_base;
  let delinquent_pc = Array.make (Int.max 1 lay.Layout.n_pcs) false in
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
    sel = Array.make (Array.length ctxs) 0;
    stats;
    rr = 0;
    delinquent_pc;
    last_spawned = -1;
    ff = false;
    attrib;
    win =
      {
        sampling;
        detail_left =
          (match sampling with Some s -> s.detail_window | None -> max_int);
        ff_total = 0;
        est_extra = 0.0;
        win_cycles0 = 0;
        win_instrs0 = 0;
        measuring = false;
        jst = ref jitter_seed;
        pending_k = 0;
        prev_cpi = 0.0;
      };
    tel_spawns = T.counter "sim.spawns";
    tel_spawn_denied = T.counter "sim.spawn_denied";
    tel_watchdog_kills = T.counter "sim.watchdog_kills";
  }

(* The latest cycle at which a source register of pc [pc] becomes ready
   (0 with no sources). The scoreboard is read and written once or twice
   per issued instruction, so both walks are inlined into the cores'
   issue loops. *)
let[@inline] src_ready m (ctx : context) pc =
  let lay = m.lay in
  let r = ref 0 in
  for i = lay.Layout.use_at.(pc) to lay.Layout.use_at.(pc + 1) - 1 do
    let t = ctx.reg_ready.(lay.Layout.use_reg.(i)) in
    if t > !r then r := t
  done;
  !r

let[@inline] set_defs_ready m (ctx : context) pc ready =
  let lay = m.lay in
  for i = lay.Layout.def_at.(pc) to lay.Layout.def_at.(pc + 1) - 1 do
    ctx.reg_ready.(lay.Layout.def_reg.(i)) <- ready
  done

(* The in-order ready cycle: the later of the front end's return and the
   sources of the instruction at the pc (stall-on-use); [max_int] while
   the context is idle. *)
let refresh_ready m (ctx : context) =
  let th = ctx.thread in
  ctx.ready <-
    (if th.Thread.active then
       Int.max ctx.redirect_until (src_ready m ctx th.Thread.pc)
     else max_int)

(* [n] plus the number of idle contexts at or after [i]; a loop with every
   value passed in, so a chk.c allocates no closure. *)
let rec free_count (ctxs : context array) i n =
  if i >= Array.length ctxs then n
  else
    free_count ctxs (i + 1) (if ctxs.(i).thread.Thread.active then n else n + 1)

(* The chk.c firing policy: a free context (or several, per config), and a
   refractory interval per triggering thread to bound flush costs; records
   the firing time when it fires. Never fires inside a
   fast-forward window (no timing context to spawn into; architecturally a
   chk.c that does not fire is a nop, so outputs are unaffected). *)
let chk_allowed m ~now (ctx : context) =
  (not m.ff)
  && free_count m.ctxs 1 0 >= m.cfg.Config.chk_min_free
  && now - ctx.last_chk_fire >= m.cfg.Config.chk_refractory
  && (not (F.fire site_starve))
  && (ctx.last_chk_fire <- now;
      true)

(* The id of the first idle speculative context at or after [i], or -1. *)
let rec free_context (ctxs : context array) i =
  if i >= Array.length ctxs then -1
  else if ctxs.(i).thread.Thread.active then free_context ctxs (i + 1)
  else i

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
        ~dur:(float_of_int (Int.max 0 (now - ctx.spawned_at)))
        ~args:
          [
            ("target", ctx.spawn_target);
            ("watchdog", if watchdog then "true" else "false");
          ]
        (if ctx.spawn_target = "" then "spec" else ctx.spawn_target);
    ctx.spawned_at <- -1
  end

(* The "fn#blk" timeline label of the spawn at pc [src]: its target
   function and the index of the block its label names. *)
let spawn_label m src =
  match Ssp_ir.Prog.instr m.prog m.lay.Layout.irefs.(src) with
  | Ssp_isa.Op.Spawn (fn, l) ->
    let f = Ssp_ir.Prog.find_func m.prog fn in
    fn ^ "#" ^ string_of_int (Ssp_ir.Prog.block_index f l)
  | _ -> ""

(* Bind a free context as a speculative thread at pc [target], charging
   the spawn and live-in-copy latency to the child's start. [src] is the
   spawning thread, at the spawn's pc: the child's live-in buffer is a
   copy of its [lib_out], and attribution and the timeline label read the
   spawn from its pc. Allocates nothing with attribution and trace events
   off. *)
let try_spawn m ~now (src : Thread.t) target =
  let id = if F.fire site_spawn_deny then -1 else free_context m.ctxs 1 in
  if id < 0 then begin
    T.incr m.tel_spawn_denied;
    (match m.attrib with
    | Some a -> Attrib.spawn_denied a ~src:m.lay.Layout.irefs.(src.Thread.pc)
    | None -> ());
    false
  end
  else begin
    let ctx = m.ctxs.(id) in
    (* A context can be freed by the issue loop without the end having
       been noted (e.g. the previous occupant was killed this cycle). *)
    note_thread_end m ctx ~now ~watchdog:false;
    Thread.reset_for_spawn ctx.thread ~pc:target ~live_in:src.Thread.lib_out
      ~seed:((id * 1103515245) + 12345);
    Array.fill ctx.reg_ready 0 (Array.length ctx.reg_ready) 0;
    Array.fill ctx.fill_ready 0 (Array.length ctx.fill_ready) 0;
    ctx.redirect_until <-
      now + m.cfg.Config.spawn_latency + m.cfg.Config.lib_latency
      + (if F.fire site_spawn_delay then 64 else 0);
    (* the scoreboard is clear: ready when the front end is *)
    ctx.ready <- ctx.redirect_until;
    ctx.spawned_at <- now;
    ctx.spawn_target <-
      (if Option.is_some m.attrib || T.events_on () then
         spawn_label m src.Thread.pc
       else "");
    m.stats.Stats.spawns <- m.stats.Stats.spawns + 1;
    T.incr m.tel_spawns;
    (match m.attrib with
    | Some a -> Attrib.spawned a ~src:m.lay.Layout.irefs.(src.Thread.pc)
    | None -> ());
    m.last_spawned <- id;
    true
  end

(* Fill [m.sel] with the ids of up to [issue_threads] contexts ready at
   [now] — the non-speculative thread first (it has priority for
   fetch/issue slots), speculative contexts round-robin — and return how
   many. The scratch array holds ids, not contexts, so filling it stores
   no pointer; the cursor wraps by comparison, not division. *)
let select_threads m ~now =
  let ctxs = m.ctxs and sel = m.sel in
  let n = Array.length ctxs in
  let cap = m.cfg.Config.issue_threads in
  let count = ref 0 in
  if ctxs.(0).ready <= now then begin
    sel.(0) <- 0;
    count := 1
  end;
  let i = ref (1 + m.rr) in
  for _ = 0 to n - 2 do
    if !count < cap && ctxs.(!i).ready <= now then begin
      sel.(!count) <- !i;
      incr count
    end;
    i := if !i = n - 1 then 1 else !i + 1
  done;
  let r = m.rr + 1 in
  m.rr <- (if r >= n - 1 then 0 else r);
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

(* Per-interval telemetry: the main thread's instruction rate and the L1D
   demand misses over each [interval_cycles]-cycle interval. *)
let interval_cycles = 8192

type interval = {
  iv_ipc : T.series;
  iv_misses : T.series;
  mutable iv_instrs : int;  (* main instructions at the last sample *)
  mutable iv_l1d : int;  (* L1D misses at the last sample *)
}

let interval prefix =
  {
    iv_ipc = T.series (prefix ^ ".interval_ipc");
    iv_misses = T.series (prefix ^ ".interval_l1d_misses");
    iv_instrs = 0;
    iv_l1d = 0;
  }

let interval_sample m iv ~now =
  let mi = m.stats.Stats.main_instrs in
  let ms = Cache.stats_misses (Hierarchy.l1d m.hier) in
  T.sample iv.iv_ipc ~x:(float_of_int now)
    ~y:(float_of_int (mi - iv.iv_instrs) /. float_of_int interval_cycles);
  T.sample iv.iv_misses ~x:(float_of_int now)
    ~y:(float_of_int (ms - iv.iv_l1d));
  iv.iv_instrs <- mi;
  iv.iv_l1d <- ms

(* Figure 10 accounting for the main thread: a busy cycle (it issued or
   retired something) is Exec, or Cache+Exec under an outstanding miss; an
   idle one is charged to the deepest level it is waiting on. *)
let end_cycle m iv ~now ~busy =
  let rank = outstanding_rank m.ctxs.(0) ~now in
  let cat =
    if busy then if rank > 0 then Stats.Cat_cache_exec else Stats.Cat_exec
    else
      match rank with
      | 4 -> Stats.Cat_l3
      | 3 -> Stats.Cat_l2
      | 2 -> Stats.Cat_l1
      | _ -> Stats.Cat_other
  in
  Stats.add_category m.stats cat;
  m.stats.Stats.cycles <- now + 1;
  if T.is_enabled () && (now + 1) mod interval_cycles = 0 then
    interval_sample m iv ~now:(now + 1)

(* Charge the cycles [t, min upto until) to category index [i]; returns
   the cycle the charge ends at. *)
let charge (stats : Stats.t) i ~t ~upto ~until =
  let e = Int.max t (Int.min upto until) in
  stats.Stats.categories.(i) <- stats.Stats.categories.(i) + (e - t);
  e

(* The quiet cycles [now, until) change nothing but the clock, so what
   [end_cycle ~busy:false] would record for each is a function of the
   cycle alone: the main thread's category follows the deepest fill still
   outstanding — L3 before [fill_ready.(4)], then L2 before [.(3)], L1
   before [.(2)], Other after — and the interval samples see the same
   instruction and miss counts as the last one. *)
let skip_quiet m iv ~now ~until =
  let fr = m.ctxs.(0).fill_ready and s = m.stats in
  let cat = Stats.category_index in
  let t = charge s (cat Stats.Cat_l3) ~t:now ~upto:fr.(4) ~until in
  let t = charge s (cat Stats.Cat_l2) ~t ~upto:fr.(3) ~until in
  let t = charge s (cat Stats.Cat_l1) ~t ~upto:fr.(2) ~until in
  ignore (charge s (cat Stats.Cat_other) ~t ~upto:until ~until);
  m.rr <- (m.rr + (until - now - 1)) mod Int.max 1 (Array.length m.ctxs - 1);
  s.Stats.cycles <- until;
  if T.is_enabled () then begin
    let b = ref ((now / interval_cycles + 1) * interval_cycles) in
    while !b <= until do
      interval_sample m iv ~now:!b;
      b := !b + interval_cycles
    done
  end

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
        }
    | None -> None)
  | _ -> None

let demand_access m ~now ~ctx ~pc addr =
  let perfect = m.delinquent_pc.(pc) in
  (* Speculative-thread misses must not starve the main thread's demand
     misses out of the fill buffer. *)
  let low_priority = ctx.thread.Thread.id <> 0 in
  let ready =
    if perfect then Hierarchy.perfect_hit m.hier ~now
    else
      match m.attrib with
      | None -> Hierarchy.demand m.hier ~now ~low_priority addr
      | Some _ ->
        let iref = m.lay.Layout.irefs.(pc) in
        Hierarchy.access m.hier ~now ~low_priority
          ?pf_tag:(pf_tag_of m ctx iref) ~demand_iref:iref
          ~demand_main:(not low_priority) addr
  in
  let level = Hierarchy.last_level m.hier in
  if ctx.thread.Thread.id = 0 then
    Stats.record_load_pc m.stats ~pc level
      ~partial:(Hierarchy.last_partial m.hier);
  (* Track the fill for stall attribution if it is an L1 miss. *)
  (match level with
  | Hierarchy.L1 -> ()
  | lvl ->
    let r = level_rank lvl in
    if ready > ctx.fill_ready.(r) then ctx.fill_ready.(r) <- ready);
  ready

(* Write-allocate; the store buffer hides the latency. *)
let store_access m ~now ~ctx addr =
  match m.attrib with
  | None -> ignore (Hierarchy.demand m.hier ~now ~low_priority:false addr)
  | Some _ ->
    ignore
      (Hierarchy.access m.hier ~now ~demand_main:(ctx.thread.Thread.id = 0)
         addr)

let prefetch_access m ~now ~ctx ~pc addr =
  m.stats.Stats.prefetches <- m.stats.Stats.prefetches + 1;
  match m.attrib with
  | None -> ignore (Hierarchy.prefetch m.hier ~now addr)
  | Some _ ->
    ignore
      (Hierarchy.access m.hier ~now ~prefetch:true
         ?pf_tag:(pf_tag_of m ctx m.lay.Layout.irefs.(pc))
         addr)

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
   they never affect main-thread state); the ready cycles of every context
   are recomputed after. Returns the instruction count actually executed
   (the main thread may halt mid-window). *)
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
  for i = 0 to Array.length m.ctxs - 1 do
    refresh_ready m m.ctxs.(i)
  done;
  n

(* The callbacks through which an instruction of the context whose id is
   in [stepping] asks for timing decisions, at cycle [now]. *)
let env m ~now ~stepping =
  {
    Exec.mem = m.mem;
    chk_free = (fun () -> chk_allowed m ~now:!now m.ctxs.(!stepping));
    spawn =
      (fun src target ->
        (* Injected chained-spawn breakage: a speculative thread's spawn
           silently fails, cutting the chain. *)
        if src.Thread.speculative && F.fire site_chain_break then false
        else try_spawn m ~now:!now src target);
    output = (fun v -> Stats.push_output m.stats v);
    ev_addr = 0;
  }

let count_issue m (th : Thread.t) =
  if th.Thread.id = 0 then begin
    m.stats.Stats.main_instrs <- m.stats.Stats.main_instrs + 1;
    m.win.detail_left <- m.win.detail_left - 1
  end
  else m.stats.Stats.spec_instrs <- m.stats.Stats.spec_instrs + 1

(* Quiet cycles leave the sampled-window bookkeeping alone, except that a
   measurement mark still due (windows under three instructions) lands on
   the first of them: that one is stepped. *)
let may_skip m =
  match m.win.sampling with
  | Some s ->
    m.win.measuring
    || s.detail_window - m.win.detail_left < s.detail_window / 3
  | None -> true

(* Sampled mode: after the detailed window's instruction budget is spent,
   fast-forward with functional warming and extrapolate the skipped cycles
   from the detailed cycles-per-instruction. *)
let sample m env ~now =
  match m.win.sampling with
  | None -> ()
  | Some s ->
    let w = m.win and stats = m.stats in
    if
      (not w.measuring)
      && s.detail_window - w.detail_left >= s.detail_window / 3
    then begin
      w.win_cycles0 <- now;
      w.win_instrs0 <- stats.Stats.main_instrs - w.ff_total;
      w.measuring <- true
    end;
    if w.detail_left <= 0 && m.ctxs.(0).thread.Thread.active then begin
      let det_instrs = stats.Stats.main_instrs - w.ff_total - w.win_instrs0 in
      let det_cycles = now - w.win_cycles0 in
      let cpi_w =
        if det_instrs > 0 then
          float_of_int det_cycles /. float_of_int det_instrs
        else w.prev_cpi
      in
      if w.pending_k > 0 then
        w.est_extra <-
          w.est_extra
          +. (float_of_int w.pending_k *. ((w.prev_cpi +. cpi_w) /. 2.0));
      let k =
        fast_forward m env ~now ~instrs:(ff_jitter w.jst ~window:s.ff_window)
      in
      w.ff_total <- w.ff_total + k;
      stats.Stats.main_instrs <- stats.Stats.main_instrs + k;
      w.pending_k <- k;
      w.prev_cpi <- cpi_w;
      w.measuring <- false;
      w.detail_left <- s.detail_window
    end

let finish m ~now =
  (* Settle attribution: speculative threads still alive at program end,
     then prefetches never demanded. *)
  Array.iter (fun c -> note_thread_end m c ~now ~watchdog:false) m.ctxs;
  (match m.attrib with Some a -> Attrib.finalize a | None -> ());
  let w = m.win and stats = m.stats in
  if w.ff_total > 0 then begin
    (* The last chunk has no following window; settle it one-sided. *)
    if w.pending_k > 0 then
      w.est_extra <- w.est_extra +. (float_of_int w.pending_k *. w.prev_cpi);
    stats.Stats.cycles <- now + int_of_float (Float.round w.est_extra);
    (* Cycle categories are only counted during detailed windows;
       extrapolate them by the same factor as cycles so the printed
       breakdown stays a per-cycle distribution. *)
    let k = float_of_int stats.Stats.cycles /. float_of_int (Int.max 1 now) in
    Array.iteri
      (fun i c ->
        stats.Stats.categories.(i) <-
          int_of_float (Float.round (float_of_int c *. k)))
      stats.Stats.categories
  end;
  Stats.finish ~irefs:m.lay.Layout.irefs stats
