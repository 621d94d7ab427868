(** Shared SMT machinery for the cycle models: hardware-context management,
    the static layout tables (branch-predictor numbering, bundle ids,
    per-pc scoreboard facts), round-robin thread selection over the
    contexts' stored ready cycles, the spawn
    policy, per-interval telemetry, the one-step accounting of quiet
    cycles, and the skeleton both cores share: their timing callbacks
    ({!env}), the sampled-window controller with its fast-forward windows
    ({!sample}) and the end-of-run settle ({!finish}). *)

type sampling = { detail_window : int; ff_window : int }
(** Sampled-simulation windows, in main-thread instructions: alternate
    [detail_window] cycle-accurate instructions with [ff_window]
    fast-forwarded (functionally warmed) ones. *)

val default_sampling : sampling
(** 500 detailed / 4500 fast-forwarded (10% detail, short period): the
    windows the bench and accuracy tests validate. *)

type context = {
  thread : Thread.t;
  mutable redirect_until : int;
      (** front end stalled until this cycle (mispredict, flush, I-miss) *)
  mutable ready : int;
      (** the first cycle at which the context can take an issue slot
          (in-order) or dispatch slot (OOO); [max_int] while it cannot.
          The in-order core recomputes it ({!refresh_ready}) after the
          context issues; a spawn that binds the context and a
          fast-forward ({!sample}) set it too. The OOO core recomputes it
          every stepped cycle *)
  reg_ready : int array;  (** scoreboard: cycle each register is available *)
  fill_ready : int array;
      (** per level-rank (indices 2..4): latest ready cycle among this
          thread's demand fills from that level — outstanding iff in the
          future *)
  mutable bundle_left : int;  (** issue-slot bookkeeping within a cycle *)
  mutable last_chk_fire : int;  (** cycle of this thread's last chk.c fire *)
  mutable spawned_at : int;
      (** cycle the current speculative occupancy began (-1 when idle) *)
  mutable spawn_target : string;  (** "fn#blk" label for timeline events *)
}

type window
(** Sampled-window state of one run: the instruction budget of the current
    detailed window, the measurement marks and the extrapolation so far.
    Each fast-forward is charged the mean CPI of the measured parts of the
    detailed windows either side of it; the first third of every detailed
    window warms the pipeline and is not measured. Fast-forward lengths are
    jittered uniformly in [0.5, 1.5)x [ff_window] from a constant-seeded
    stream, which breaks resonance with loop periodicity and keeps runs
    bit-reproducible. *)

type machine = {
  cfg : Ssp_machine.Config.t;
  prog : Ssp_ir.Prog.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  bp : Bpred.t;
  lay : Layout.t;
  ctxs : context array;  (** indexed by context id *)
  sel : int array;  (** scratch of context ids filled by {!select_threads} *)
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
  win : window;
  tel_spawns : Ssp_telemetry.Telemetry.counter;
  tel_spawn_denied : Ssp_telemetry.Telemetry.counter;
  tel_watchdog_kills : Ssp_telemetry.Telemetry.counter;
}

val create :
  ?attrib:Attrib.t ->
  sampling:sampling option ->
  Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  machine
(** Context 0 is the main thread, initialized at the program entry.
    [attrib] attaches prefetch-lifecycle attribution to the machine and
    its hierarchy (bookkeeping only; timing is unchanged); [Some] sampling
    alternates detailed and fast-forwarded windows ({!sample}). *)

val env : machine -> now:int ref -> stepping:int ref -> Exec.env
(** The timing callbacks of a cycle core whose clock is [now] and which is
    stepping the context whose id is in [stepping] (an id, not the
    context: setting it at every issue then stores no pointer): the chk.c
    policy
    ({!chk_allowed}), spawning ({!try_spawn}, with the injected
    chained-spawn breakage for speculative spawners) and outputs. *)

val count_issue : machine -> Thread.t -> unit
(** Count an issued (dispatched) instruction of the thread: main or
    speculative, and against the current detailed window's budget. *)

val may_skip : machine -> bool
(** Whether the sampled-window bookkeeping allows a quiet cycle to be
    skipped: not while a measurement mark is due (windows under three
    instructions). Always true without sampling. *)

val sample : machine -> Exec.env -> now:int -> unit
(** The sampled-window controller, called after each stepped or skipped
    stretch with the clock at [now]: set the measurement mark once a
    third of the detailed window has issued; when the window's budget is
    spent, fast-forward ({!fast_forward}) and charge the skipped chunk the
    centred CPI estimate. Nothing without sampling. *)

val finish : machine -> now:int -> Stats.t
(** End of run at cycle [now]: note the end of every speculative
    occupancy, finalize attribution, extrapolate a sampled run's cycles
    and Figure 10 categories from its detailed windows, and
    {!Stats.finish}. *)

val src_ready : machine -> context -> int -> int
(** The latest cycle at which a source register of the instruction at the
    given pc id becomes ready in the context's scoreboard (0 without
    sources). *)

val set_defs_ready : machine -> context -> int -> int -> unit
(** [set_defs_ready m ctx pc ready]: the registers the instruction at [pc]
    writes become ready at cycle [ready]. *)

val refresh_ready : machine -> context -> unit
(** Set the context's in-order [ready]: the later of [redirect_until] and
    the ready cycles of the sources of the instruction at its pc
    (stall-on-use), or [max_int] while it is idle. *)

val note_thread_end : machine -> context -> now:int -> watchdog:bool -> unit
(** Record the end of a speculative occupancy: lifetime attribution and a
    timeline event. Idempotent per occupancy; the issue loops call it when
    a speculative thread kills itself, [watchdog_check] and [try_spawn]
    call it for the other endings. *)

val select_threads : machine -> now:int -> int
(** Fill [sel] with the ids of up to [issue_threads] contexts whose stored
    [ready] cycle is at most [now], in priority order (main thread first,
    then round-robin); returns the count and advances the cursor.
    Allocation-free, and it divides nothing. *)

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

val demand_access : machine -> now:int -> ctx:context -> pc:int -> int -> int
(** A load's cache access, returning its ready cycle (the level and
    partial flag are left in the hierarchy, see
    {!Hierarchy.last_level}), with perfect-delinquent filtering and per-site
    stats recording (main thread only), keyed by the dense {!Layout} pc id.
    With attribution attached, a speculative load at a mapped slice site is
    tagged as a prefetch issue (value-used targets emit no lfetch — the
    load is the prefetch), and main-thread accesses settle outstanding
    prefetches. *)

val store_access : machine -> now:int -> ctx:context -> int -> unit
(** A store's write-allocate access (the store buffer hides its latency;
    with attribution on, a main-thread store settles outstanding
    prefetches like a demand access). *)

val prefetch_access : machine -> now:int -> ctx:context -> pc:int -> int -> unit
(** An lfetch's access, counted in [stats.prefetches]; with attribution
    on, tagged with the delinquent load its site maps to, if any. *)

val watchdog_check : machine -> now:int -> context -> unit
(** Kill a speculative thread that exceeded its instruction budget. *)
