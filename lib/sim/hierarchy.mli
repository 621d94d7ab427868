(** The shared cache hierarchy with the 16-entry fill buffer.

    An access probes L1 → fill buffer → L2 → L3 → memory. A miss allocates
    a fill-buffer (MSHR) entry; an access to a line already in transit is a
    {e partial} hit serviced when the outstanding fill completes — the
    partial categories of Figure 9. Completed fills install the line at
    every level. When the fill buffer is full a missing access must wait
    for the earliest entry to retire. *)

type level = L1 | L2 | L3 | Mem

type outcome = {
  level : level;  (** where the data was found (origin of the fill) *)
  partial : bool;  (** line was already in transit *)
  ready : int;  (** cycle the value is available *)
}

type t

val create : ?tprefix:string -> Ssp_machine.Config.t -> t
(** [tprefix] (default ["sim"]) namespaces the per-level telemetry counters
    (["sim.l1d.hits"], ["sim.fill.dropped_prefetch"], ...), so simulator
    and profiler traffic stay distinguishable in one run report. *)

val l1d : t -> Cache.t
(** The L1 data cache (for interval telemetry sampling). *)

val set_attrib : t -> Attrib.t -> unit
(** Attach prefetch-lifecycle attribution. Accesses carrying a [pf_tag]
    are recorded as prefetch issues (and classified redundant / dropped
    at issue time); untagged data accesses settle outstanding prefetches
    (useful / late / early-evicted). Pure bookkeeping: outcomes and
    timing are unchanged. *)

val access :
  t ->
  now:int ->
  ?prefetch:bool ->
  ?low_priority:bool ->
  ?instruction:bool ->
  ?pf_tag:Attrib.tag ->
  ?demand_iref:Ssp_ir.Iref.t ->
  ?demand_main:bool ->
  int64 ->
  outcome
(** Account a load ([prefetch:false]), a prefetch or an instruction fetch
    at the given cycle. Prefetch fills are non-temporal: they install into
    L2/L3 but not L1 (Itanium [lfetch.nt]). Stores are accounted as loads for line-fill
    purposes (write-allocate). In [Perfect_memory] mode everything hits L1;
    the perfect-delinquent filtering is done by the caller (it knows the
    static load identity).

    [pf_tag] marks the access as an attributed prefetch (an lfetch, or a
    speculative demand load standing in for one); [demand_iref] and
    [demand_main] identify untagged data accesses for attribution — all
    three are ignored unless [set_attrib] was called. *)

val demand : t -> now:int -> low_priority:bool -> int64 -> outcome
(** [access] without the optional plumbing: an untagged demand data access
    ([demand_main] is the negation of [low_priority]). The cycle
    simulators' hot path when no attribution is attached. *)

val ifetch : t -> now:int -> int64 -> outcome
(** An instruction fetch (equivalent to [access ~instruction:true] with no
    other options; instruction fetches never carry attribution). *)

val prefetch : t -> now:int -> int64 -> outcome
(** An untagged prefetch (equivalent to [access ~prefetch:true] with no
    attribution tag); the hot path when attribution is off. *)

val warm_i : t -> int -> unit
(** Functional warming (sampled simulation): install the line at every
    level with no timing, fill-buffer traffic or attribution. The address
    is a native int (62-bit address space), so the decoded interpreter
    computes it without int64 boxing. Consecutive touches of one line
    collapse to a single access (exact for LRU state: no other line moved
    in between); call {!reset_warm_filter} whenever a timed access may
    have intervened. *)

val warm_ifetch_i : t -> int -> unit
(** Functional warming of the instruction cache (int fetch address, as
    precomputed in [Layout.blk0_iaddr]). *)

val reset_warm_filter : t -> unit
(** Invalidate the consecutive-same-line warming filter; each fast-forward
    window calls it on entry (detailed windows touch the caches directly). *)

val perfect_hit : t -> now:int -> outcome
(** An L1-latency hit regardless of state (used for perfect modes). *)

val level_latency : t -> level -> int

val pp_level : Format.formatter -> level -> unit
