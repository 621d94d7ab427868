(** Byte-addressable simulated memory, paged and zero-initialized, with the
    bump allocator backing the [Alloc] instruction. Little-endian.

    Pages sit in an int-keyed table behind a 64-slot direct-mapped page
    cache (slot = page id [land 63]), so an access costs an int compare
    and two array loads unless it leaves the cached pages. *)

type t

val create : unit -> t

val read : t -> int -> int -> int64
(** [read m addr bytes] with [bytes] in {1,2,4,8}; zero-extends except for
    8-byte reads. Addresses are native ints, masked to the 62-bit address
    space. *)

val write : t -> int -> int -> int64 -> unit

val read_to : t -> int -> int -> Bytes.t -> int -> unit
(** [read_to m addr bytes regs off]: [read m addr bytes] stored into the
    8-byte slot at byte offset [off] of a {!Thread.regs}-layout buffer,
    without boxing the value. *)

val write_from : t -> int -> int -> Bytes.t -> int -> unit
(** [write_from m addr bytes regs off]: [write m addr bytes] of the value in
    that slot, without boxing it. *)

val alloc : t -> int64 -> int64
(** Bump-allocate the given number of bytes (8-byte aligned); returns the
    base address. *)

val heap_used : t -> int64
