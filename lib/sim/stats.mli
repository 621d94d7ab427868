(** Simulation statistics: everything Figures 8–10 and §4.4 need.

    Cycle categories follow Figure 10 (main thread only):
    - [Cat_l3]/[Cat_l2]/[Cat_l1]: no instruction issued while a demand miss
      of the main thread was outstanding; attributed to the cache level that
      missed (a fill from memory is an L3 miss, from L3 an L2 miss, from L2
      an L1 miss);
    - [Cat_cache_exec]: issued and a miss outstanding in the same cycle;
    - [Cat_exec]: issued, no miss outstanding;
    - [Cat_other]: neither (branch bubbles, flushes, front-end stalls).

    Per-static-load level counters (main thread only) drive Figure 9,
    including partial hits (line already in transit). *)

type category = Cat_l3 | Cat_l2 | Cat_l1 | Cat_cache_exec | Cat_exec | Cat_other

type load_site = {
  mutable accesses : int;
  mutable l1 : int;
  mutable l2 : int;
  mutable l2_partial : int;
  mutable l3 : int;
  mutable l3_partial : int;
  mutable mem : int;
  mutable mem_partial : int;
}

type t = {
  mutable cycles : int;
  mutable main_instrs : int;
  mutable spec_instrs : int;
  mutable spawns : int;
  mutable chk_fired : int;
  mutable mispredicts : int;
  mutable prefetches : int;
  categories : int array;  (** indexed by {!category_index} *)
  loads : load_site Ssp_ir.Iref.Tbl.t;
  mutable outputs : int64 list;  (** program order; filled by {!finish} *)
  mutable out_buf : int64 array;  (** growable output buffer, program order *)
  mutable out_n : int;
  mutable sites : load_site option array;
      (** pc-indexed load-site counters (see {!Layout}); merged into
          [loads] by {!finish} *)
}

val create : unit -> t
val category_index : category -> int
val add_category : t -> category -> unit
val load_site : t -> Ssp_ir.Iref.t -> load_site

val push_output : t -> int64 -> unit
(** Append to the growable output buffer: order-correct by construction,
    amortized allocation-free. *)

val ensure_sites : t -> int -> unit
(** Size the pc-indexed site array (once, at machine creation). *)

val record_load_pc : t -> pc:int -> Hierarchy.level -> partial:bool -> unit
(** Allocation-light per-site recording by dense pc id; requires
    [ensure_sites] to have covered [pc]. *)

val finish : ?irefs:Ssp_ir.Iref.t array -> t -> t
(** Publish [outputs] (buffered outputs are already in program order)
    and, given the layout's [irefs], merge pc-indexed site counters into
    [loads]. *)

val ipc : t -> float
val pp : Format.formatter -> t -> unit
