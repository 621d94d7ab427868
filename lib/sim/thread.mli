(** Architectural state of one hardware thread context: program counter,
    register file, register-stack frames, and the live-in buffer views used
    by SSP spawning.

    The register file is unboxed: register [r] is the 8-byte slot at byte
    offset [8 * r] of [regs], accessed with {!get64u}/{!set64u}, so the
    decoded arms compute and store 64-bit values without allocating. The
    current function is named by its index in [Layout.by_index]; cold
    paths that need its name read it from the layout. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
(** The 8-byte slot at a byte offset, host byte order, unchecked. *)

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type frame = {
  saved_stacked : Bytes.t;  (** r32–r127 of the caller, 8 bytes each *)
  mutable saved_n : int;
      (** how many registers of [saved_stacked] the call actually saved; the
          matching return restores exactly that many. [push_frame] sets the
          full count; the decoded interpreter's call saves only the caller's
          mentioned-register prefix and lowers it *)
  mutable ret_blk : int;
  mutable ret_ins : int;
  mutable ret_fn : int;  (** the caller's [Layout.by_index] index *)
}
(** One register-stack frame. Frames live in a per-thread pool ([frames] up
    to [frame_n]) and are reused across calls — a call blits the stacked
    registers into the pooled frame instead of allocating. *)

type t = {
  id : int;  (** hardware context number *)
  mutable fn : int;  (** current function's [Layout.by_index] index *)
  mutable blk : int;
  mutable ins : int;
  regs : Bytes.t;  (** 128 registers, 8 bytes each; r0's slot stays zero *)
  mutable frames : frame array;
      (** frame pool, grown by doubling; [frames.(0 .. frame_n-1)] are the
          live frames, innermost last *)
  mutable frame_n : int;  (** live call depth *)
  mutable live_in : int64 array;  (** snapshot received at spawn *)
  lib_out : int64 array;  (** staging area for the next spawn *)
  mutable speculative : bool;
  mutable active : bool;
  mutable instrs : int;  (** dynamic instructions executed *)
  rand_state : Bytes.t;  (** the [rand] stream's 64-bit state, unboxed *)
}

val lib_slots : int
(** Live-in buffer capacity (one register-stack spill area's worth). *)

val stacked_off : int
(** Byte offset of the first stacked register (r32) in [regs]. *)

val create : id:int -> t

val reset_for_spawn :
  t -> fn:int -> blk:int -> live_in:int64 array -> rand_state:int64 -> unit
(** Reinitialize a context as a speculative thread starting at the given
    block of function [fn] (a [Layout.by_index] index) with the given
    live-in snapshot. *)

val get : t -> Ssp_isa.Reg.t -> int64
val set : t -> Ssp_isa.Reg.t -> int64 -> unit

val push_frame : t -> ret_blk:int -> ret_ins:int -> frame
(** The next pooled frame, fields set ([ret_fn] from the thread's current
    [fn]) and depth bumped; the caller blits the stacked registers into
    [saved_stacked]. Allocates only when the pool grows. *)
