(** Architectural state of one hardware thread context: program counter,
    register file, register-stack frames, and the live-in buffer views used
    by SSP spawning. *)

type frame = {
  saved_stacked : int64 array;  (** r32–r127 of the caller *)
  mutable saved_n : int;
      (** how many entries of [saved_stacked] the call actually saved; the
          matching return restores exactly that many. [push_frame] sets the
          full count; the decoded interpreter's call saves only the caller's
          mentioned-register prefix and lowers it *)
  mutable ret_blk : int;
  mutable ret_ins : int;
  mutable ret_fn : string;
}
(** One register-stack frame. Frames live in a per-thread pool ([frames] up
    to [frame_n]) and are reused across calls — a call blits the stacked
    registers into the pooled frame instead of allocating. *)

type t = {
  id : int;  (** hardware context number *)
  mutable fn : string;
  mutable blk : int;
  mutable ins : int;
  regs : int64 array;  (** 128 registers; r0 kept at zero *)
  mutable frames : frame array;
      (** frame pool, grown by doubling; [frames.(0 .. frame_n-1)] are the
          live frames, innermost last *)
  mutable frame_n : int;  (** live call depth *)
  mutable live_in : int64 array;  (** snapshot received at spawn *)
  lib_out : int64 array;  (** staging area for the next spawn *)
  mutable speculative : bool;
  mutable active : bool;
  mutable instrs : int;  (** dynamic instructions executed *)
  mutable rand_state : int64;
}

val lib_slots : int
(** Live-in buffer capacity (one register-stack spill area's worth). *)

val create : id:int -> t

val reset_for_spawn :
  t -> fn:string -> blk:int -> live_in:int64 array -> rand_state:int64 -> unit
(** Reinitialize a context as a speculative thread starting at the given
    block with the given live-in snapshot. *)

val get : t -> Ssp_isa.Reg.t -> int64
val set : t -> Ssp_isa.Reg.t -> int64 -> unit

val push_frame : t -> ret_blk:int -> ret_ins:int -> frame
(** The next pooled frame, fields set ([ret_fn] from the thread's current
    [fn]) and depth bumped; the caller blits the stacked registers into
    [saved_stacked]. Allocates only when the pool grows. *)
