(** The shared cache hierarchy with the 16-entry fill buffer.

    An access probes L1 → fill buffer → L2 → L3 → memory. A miss allocates
    a fill-buffer (MSHR) entry; an access to a line already in transit is a
    {e partial} hit serviced when the outstanding fill completes — the
    partial categories of Figure 9. Completed fills install the line at
    every level. When the fill buffer is full a missing access must wait
    for the earliest entry to retire.

    A timed access returns the cycle its value is available, and leaves in
    the hierarchy where the data was found ({!last_level}) and whether the
    line was already in transit ({!last_partial}): an access allocates
    nothing. *)

type level = L1 | L2 | L3 | Mem

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
  int ->
  int
(** Account a load ([prefetch:false]), a prefetch or an instruction fetch
    at the given cycle, to a native-int address (the simulated address
    space is 62-bit). Prefetch fills are non-temporal: they install into
    L2/L3 but not L1 (Itanium [lfetch.nt]). Stores are accounted as loads for line-fill
    purposes (write-allocate). In [Perfect_memory] mode everything hits L1;
    the perfect-delinquent filtering is done by the caller (it knows the
    static load identity).

    [pf_tag] marks the access as an attributed prefetch (an lfetch, or a
    speculative demand load standing in for one); [demand_iref] and
    [demand_main] identify untagged data accesses for attribution — all
    three are ignored unless [set_attrib] was called. *)

val demand : t -> now:int -> low_priority:bool -> int -> int
(** [access] without the optional plumbing: an untagged demand data access
    ([demand_main] is the negation of [low_priority]). The cycle
    simulators' hot path when no attribution is attached. *)

val ifetch : t -> now:int -> int -> int
(** An instruction fetch (equivalent to [access ~instruction:true] with no
    other options; instruction fetches never carry attribution). *)

val prefetch : t -> now:int -> int -> int
(** An untagged prefetch (equivalent to [access ~prefetch:true] with no
    attribution tag); the hot path when attribution is off. *)

val warm : t -> int -> unit
(** Functional warming (sampled simulation): install the line at every
    level with no timing, fill-buffer traffic or attribution. Consecutive
    touches of one line
    collapse to a single access (exact for LRU state: no other line moved
    in between); call {!reset_warm_filter} whenever a timed access may
    have intervened. *)

val warm_ifetch : t -> int -> unit
(** Functional warming of the instruction cache, at a fetch address
    ([Layout.code_base + 16 * pc]). *)

val reset_warm_filter : t -> unit
(** Invalidate the consecutive-same-line warming filter; each fast-forward
    window calls it on entry (detailed windows touch the caches directly). *)

val perfect_hit : t -> now:int -> int
(** An L1-latency hit regardless of state (used for perfect modes). *)

val last_level : t -> level
(** Where the last timed access found its data (the origin of the fill). *)

val last_partial : t -> bool
(** Whether the last timed access found its line already in transit. *)

val level_latency : t -> level -> int
