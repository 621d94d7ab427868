(** Byte-addressable simulated memory, paged and zero-initialized, with the
    bump allocator backing the [Alloc] instruction. Little-endian. *)

type t

val create : unit -> t

val read : t -> int -> int -> int64
(** [read m addr bytes] with [bytes] in {1,2,4,8}; zero-extends except for
    8-byte reads. Addresses are native ints, masked to the 62-bit address
    space. *)

val write : t -> int -> int -> int64 -> unit

val alloc : t -> int64 -> int64
(** Bump-allocate the given number of bytes (8-byte aligned); returns the
    base address. *)

val heap_used : t -> int64
