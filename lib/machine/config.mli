(** The two research Itanium machine models of Table 1.

    Both are SMT with four hardware thread contexts, fetching and issuing
    two bundles per cycle from one thread or one bundle each from two
    threads. The in-order model has a 12-stage pipeline and per-thread
    16-bundle expansion queues; the OOO model has four extra front-end
    stages, a per-thread 255-entry reorder buffer and an 18-entry
    reservation station. The memory hierarchy is shared: 16 KB 4-way L1
    (2 cycles), 256 KB 4-way L2 (14 cycles), 3 MB 12-way L3 (30 cycles),
    64-byte lines, a 16-entry fill buffer, and 230-cycle memory. *)

type pipeline = In_order | Out_of_order

type cache_geom = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  latency : int;  (** load-to-use latency when hitting at this level *)
}

type memory_mode =
  | Normal
  | Perfect_memory  (** every load hits L1 (Figure 2, first bar) *)
  | Perfect_delinquent of Ssp_ir.Iref.Set.t
      (** the given static loads always hit L1 (Figure 2, second bar) *)

type t = {
  pipeline : pipeline;
  n_contexts : int;
  fetch_bundles : int;  (** total bundles fetched per cycle *)
  fetch_threads : int;  (** max threads sharing fetch in one cycle *)
  issue_bundles : int;
  issue_threads : int;
  int_units : int;
  mem_ports : int;
  br_units : int;
  expansion_queue_bundles : int;  (** in-order front-end queue, per thread *)
  rob_entries : int;  (** OOO *)
  rs_entries : int;  (** OOO *)
  retire_width : int;  (** OOO, instructions per cycle *)
  front_end_penalty : int;
      (** cycles of fetch bubble after a mispredicted branch or a pipeline
          flush (derived from the 12- vs 16-stage depth) *)
  l1 : cache_geom;
  l2 : cache_geom;
  l3 : cache_geom;
  mem_latency : int;
  fill_buffer_entries : int;
  gshare_entries : int;
  btb_entries : int;
  btb_ways : int;
  spawn_flush : bool;
      (** thread spawning incurs an exception-like pipeline flush in the
          triggering thread (no special hardware support, §4.4.1) *)
  chk_min_free : int;
      (** [chk.c] fires only when at least this many hardware contexts are
          free (1 = the paper's semantics; higher values suppress duplicate
          chain re-seeds) *)
  chk_refractory : int;
      (** minimum cycles between two [chk.c] firings of the same thread —
          the "judicious application" of §4.4.1 that keeps the
          exception-like flush cost bounded *)
  lib_latency : int;  (** live-in buffer access latency *)
  spawn_latency : int;  (** context-allocation latency of [spawn] *)
  memory_mode : memory_mode;
  spec_watchdog : int;
      (** max dynamic instructions per speculative thread before it is
          reclaimed *)
  max_cycles : int;  (** simulation safety net *)
}

val in_order : t
val out_of_order : t

val with_memory_mode : t -> memory_mode -> t

val scale_caches : t -> int -> t
(** Divide every cache size by the factor (for fast tests; geometry kept
    legal). *)

val of_pipeline_name : string -> t option
(** The machine a pipeline name names: ["inorder"] is {!in_order} and
    ["ooo"] is {!out_of_order}, the names on the command line, on the
    wire and in {!fingerprint}; [None] for any other string. *)

val fingerprint : t -> string
(** Canonical identity string covering every behaviour-affecting field;
    two configs fingerprint equal iff they describe the same machine.
    Content-addressed caching ({!Ssp_store}) keys adapted artifacts on
    it. *)

val pp : Format.formatter -> t -> unit
(** Renders the Table 1 parameter block. *)
