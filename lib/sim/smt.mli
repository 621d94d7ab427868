(** Shared SMT machinery for the cycle models: hardware-context management,
    the static layout tables (branch-predictor numbering, bundle indices),
    round-robin thread selection, the spawn policy, per-interval telemetry,
    the one-step accounting of quiet cycles, and the set-up of the
    fast-forward windows of sampled simulation. *)

val site_chain_break : Ssp_fault.Fault.site
(** Fault site for injected chained-spawn breakage; queried by the cycle
    models when a {e speculative} thread executes a [Spawn] (only they
    know which context is stepping). *)

type sampling = { detail_window : int; ff_window : int }
(** Sampled-simulation windows, in main-thread instructions: alternate
    [detail_window] cycle-accurate instructions with [ff_window]
    fast-forwarded (functionally warmed) ones. *)

val default_sampling : sampling
(** 500 detailed / 4500 fast-forwarded (10% detail, short period): the
    windows the bench and accuracy tests validate. *)

val jitter_seed : int64
(** Initial state for the {!ff_jitter} stream (one fresh ref per run). *)

val ff_jitter : int64 ref -> window:int -> int
(** The next fast-forward length: uniform in [0.5, 1.5)x [window], drawn
    from a deterministic splitmix64 stream — breaks the resonance of
    strictly periodic sampling with loop periodicity while keeping runs
    bit-reproducible. *)

type context = {
  thread : Thread.t;
  mutable redirect_until : int;
      (** front end stalled until this cycle (mispredict, flush, I-miss) *)
  reg_ready : int array;  (** scoreboard: cycle each register is available *)
  fill_ready : int array;
      (** per level-rank (indices 2..4): latest ready cycle among this
          thread's demand fills from that level — outstanding iff in the
          future *)
  mutable bundle_left : int;  (** issue-slot bookkeeping within a cycle *)
  mutable last_chk_fire : int;  (** cycle of this thread's last chk.c fire *)
  mutable spawned_at : int;
      (** cycle the current speculative occupancy began (-1 when idle) *)
  mutable spawn_src : Ssp_ir.Iref.t option;
      (** the [Spawn] instruction that bound this occupancy *)
  mutable spawn_target : string;  (** "fn#blk" label for timeline events *)
  lay_fns : string array;
      (** physical-equality keys of [lays], most recent first: four
          move-to-front slots keep call/return cycles off the Hashtbl *)
  lays : Layout.entry array;  (** memoized layout entries *)
}

type machine = {
  cfg : Ssp_machine.Config.t;
  prog : Ssp_ir.Prog.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  bp : Bpred.t;
  lay : Layout.t;
  ctxs : context array;
  sel : context array;  (** scratch filled by {!select_threads} *)
  stats : Stats.t;
  mutable rr : int;  (** round-robin cursor over contexts *)
  delinquent_pc : bool array;
      (** pc-indexed perfect-delinquent filtering (dense {!Layout} ids) *)
  mutable last_spawned : int;
      (** context id bound by the most recent successful spawn (-1 if
          none); lets a timing model adjust the child's start *)
  mutable ff : bool;
      (** inside a fast-forward window: chk.c never fires *)
  attrib : Attrib.t option;  (** prefetch-lifecycle attribution, if any *)
  tel_spawns : Ssp_telemetry.Telemetry.counter;
  tel_spawn_denied : Ssp_telemetry.Telemetry.counter;
  tel_watchdog_kills : Ssp_telemetry.Telemetry.counter;
}

val create : ?attrib:Attrib.t -> Ssp_machine.Config.t -> Ssp_ir.Prog.t -> machine
(** Context 0 is the main thread, initialized at the program entry.
    [attrib] attaches prefetch-lifecycle attribution to the machine and
    its hierarchy (bookkeeping only; timing is unchanged). *)

val layout_of : machine -> context -> Layout.entry
(** The layout entry of the context's current function, memoized in the
    context (physical equality on [fn]); allocation-free on the hit path.
    Applies fall-through first (a pc one past the last instruction of a
    block moves to the next block), so the thread's [blk]/[ins] then index
    the instruction it executes next. *)

val chk_allowed : machine -> now:int -> context -> bool
(** Whether a [chk.c] of this thread fires now: enough free contexts and
    the thread's refractory interval elapsed (and not fast-forwarding).
    Records the firing time when it returns true. *)

val free_context : machine -> context option
(** An inactive context, if any (never the main thread's). *)

val try_spawn :
  machine ->
  now:int ->
  src:Ssp_ir.Iref.t ->
  fn:string ->
  blk:int ->
  live_in:int64 array ->
  bool
(** Bind a free context as a speculative thread; charges the spawn and
    live-in-copy latency to the child's start. [src] is the spawning
    [Spawn] instruction, recorded for attribution and denied-spawn
    accounting. *)

val note_thread_end : machine -> context -> now:int -> watchdog:bool -> unit
(** Record the end of a speculative occupancy: lifetime attribution and a
    timeline event. Idempotent per occupancy; the issue loops call it when
    a speculative thread kills itself, [watchdog_check] and [try_spawn]
    call it for the other endings. *)

val select_threads : machine -> eligible:(context -> bool) -> int
(** Fill [sel] with up to [issue_threads] contexts in priority order (main
    thread first, then round-robin) satisfying [eligible]; returns the
    count and advances the cursor. Allocation-free. *)

type interval
(** Per-interval telemetry state of one run: the main thread's instruction
    rate and L1D demand misses, one sample per 8192 cycles. *)

val interval : string -> interval
(** The series [<prefix>.interval_ipc] and [<prefix>.interval_l1d_misses]. *)

val end_cycle : machine -> interval -> now:int -> busy:bool -> unit
(** Account stepped cycle [now]: the main thread's Figure 10 category
    ([busy]: it issued, or retired, something; otherwise the deepest level
    among its outstanding fills), [stats.cycles = now + 1], and an
    interval sample if [now + 1] is an interval boundary and telemetry is
    on. *)

val skip_quiet : machine -> interval -> now:int -> until:int -> unit
(** Account the quiet cycles [\[now, until)] in one step — a quiet cycle
    is one in which nothing happens, so the machine is the same at [until]
    as at [now]. Records exactly what [end_cycle ~busy:false] would for
    each of them, splitting the categories where the main thread's
    deepest outstanding fill changes rank, and advances the round-robin
    cursor as the {!select_threads} calls after [now] would (cycle [now]'s
    call has already been made). Allocates nothing with telemetry off. *)

val demand_access :
  machine -> now:int -> ctx:context -> pc:int -> int64 -> Hierarchy.outcome
(** A load's cache access with perfect-delinquent filtering and per-site
    stats recording (main thread only), keyed by the dense {!Layout} pc id.
    With attribution attached, a speculative load at a mapped slice site is
    tagged as a prefetch issue (value-used targets emit no lfetch — the
    load is the prefetch), and main-thread accesses settle outstanding
    prefetches. *)

val pf_tag_of : machine -> context -> Ssp_ir.Iref.t -> Attrib.tag option
(** The attribution tag of a prefetch issued by this context at this
    site, if attribution is on and the site maps to a delinquent load. *)

val watchdog_check : machine -> now:int -> context -> unit
(** Kill a speculative thread that exceeded its instruction budget. *)

val fast_forward : machine -> Exec.env -> now:int -> instrs:int -> int
(** Advance the main thread up to [instrs] architectural instructions on
    {!Funcsim.exec} with functional warming (memory, outputs, caches,
    branch predictor — no timing). Ends live speculative threads first;
    suppresses chk.c firing for the duration. Returns the count actually
    executed (the main thread may halt mid-window). *)
