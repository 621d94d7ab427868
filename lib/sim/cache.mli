(** A single set-associative cache level with LRU replacement.

    Only tags are modeled (data comes from {!Memory}); that is all the
    timing model needs. *)

type t

val create : ?name:string -> Ssp_machine.Config.cache_geom -> t
(** [name] registers telemetry counters ["<name>.hits"] / ["<name>.misses"]
    updated on every {!access} while telemetry is enabled. *)

val probe : t -> int -> bool
(** Whether the line containing the address is present (no state change).
    Addresses are native ints (the simulated address space is 62-bit). *)

val install : t -> int -> unit
(** Fill the line, evicting the first least recently used way of its
    set; a line already present is only marked most recently used. One
    scan of the set finds either way. *)

val access : t -> int -> bool
(** Whether the line is present; on a hit also mark it most recently
    used. *)

val warm_access : t -> int -> bool
(** [access], and on a miss also [install], in one set scan: the
    functional-warming hot path. Equivalent to [access] followed by
    [install] up to LRU clock values (identical tags, recency order, and
    hit/miss counts). *)

val state : t -> int array * int array
(** Copies of the tags (line numbers, -1 for an empty way) and the
    recency stamps (higher is more recent), [sets * ways] each, set by
    set: for tests that compare a cache with a reference model. *)

val line_addr : t -> int -> int

val line_bits : t -> int
(** log2 of the line size in bytes. *)

val stats_misses : t -> int
