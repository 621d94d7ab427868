(** Architectural state of one hardware thread context: program counter,
    register file, register-stack frames, and the live-in buffer views used
    by SSP spawning.

    The register file is unboxed: register [r] is the 8-byte slot at byte
    offset [8 * r] of [regs], accessed with {!get64u}/{!set64u}, so the
    decoded arms compute and store 64-bit values without allocating; the
    live-in buffers use the same slot layout. The position is one
    {!Layout} pc id; cold paths that need the function or block read them
    from the layout ([Layout.fn_of], [Layout.irefs]). *)

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
  mutable ret_pc : int;  (** the pc id the return resumes at *)
}
(** One register-stack frame. Frames live in a per-thread pool ([frames] up
    to [frame_n]) and are reused across calls — a call blits the stacked
    registers into the pooled frame instead of allocating. *)

type t = {
  id : int;  (** hardware context number *)
  mutable pc : int;  (** pc id of the next instruction *)
  regs : Bytes.t;  (** 128 registers, 8 bytes each; r0's slot stays zero *)
  mutable frames : frame array;
      (** frame pool, empty at {!create} and grown by doubling (to 4 on
          the first call); [frames.(0 .. frame_n-1)] are the live frames,
          innermost last *)
  mutable frame_n : int;  (** live call depth *)
  live_in : Bytes.t;
      (** the live-in buffer received at spawn, [lib_slots] 8-byte slots;
          a main thread's stays zero *)
  lib_out : Bytes.t;  (** staging area for the next spawn, the same layout *)
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

val reset_for_spawn : t -> pc:int -> live_in:Bytes.t -> seed:int -> unit
(** Reinitialize a context as a speculative thread starting at pc id [pc],
    its live-in buffer a copy of [live_in] (the spawner's [lib_out]) and
    its [rand] state [seed]. Allocates nothing. *)

val set : t -> Ssp_isa.Reg.t -> int64 -> unit
(** Write a register (a write to r0 is dropped). *)

val push_frame : t -> ret_pc:int -> frame
(** The next pooled frame, [ret_pc] set and depth bumped; the caller blits
    the stacked registers into [saved_stacked]. Allocates only when the
    pool grows. *)
