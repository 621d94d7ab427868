(** Consistent-hash ring with virtual nodes.

    Maps string keys to shard names with stable affinity: the placement
    is a pure function of (membership, vnodes) via MD5, so every process
    computes the same map, and membership changes move only the keys
    whose owning arc changed (~1/N per joined or departed shard). Used
    by the router to pin each request key — derived from the same
    program/profile hashes that key the content-addressed store — to the
    shard whose warm cache holds it. *)

type t

val create : ?vnodes:int -> string list -> t
(** [create ~vnodes nodes] builds the ring; [vnodes] (default 128)
    points per node. Duplicate node names are collapsed; node order is
    irrelevant. Raises [Invalid_argument] if [vnodes < 1]. *)

val nodes : t -> string list
(** Current membership, sorted. *)

val vnodes : t -> int
val is_empty : t -> bool

val add : t -> string -> t
val remove : t -> string -> t

val lookup : t -> string -> string option
(** Owning node for a key; [None] on an empty ring. *)

val successors : t -> string -> string list
(** All distinct nodes in ring order starting at the key's owner — the
    stable failover sequence for that key. Head = [lookup]. *)
