(** The rare instructions' semantics, on the boxed {!Ssp_isa.Op.t} form,
    and the interface every engine shares: the environment of
    timing-directed callbacks and the events the timing models dispatch on.

    Every instruction executes through {!Funcsim.step} on its predecoded
    word; [step_op] is that step's fallback for the ops {!Decode} marks
    [slow] (icall, spawn, live-in buffer access, alloc, print, memory
    offsets outside the word's immediate field, unresolved static
    targets). Timing-directed decisions — whether [Chk_c] finds a free
    context, whether [Spawn] succeeds — are delegated to the [env]
    callbacks; the functional simulator and the cycle simulators plug in
    different policies.

    Speculative threads never write memory or allocate: stores and [Alloc]
    in a speculative context are executed as nops (the tool excludes them
    from slices anyway; the machine enforces it, §2). Loads in speculative
    threads never fault (unmapped memory reads as zero, as everywhere). *)

type env = {
  mem : Memory.t;
  prog : Ssp_ir.Prog.t;
  chk_free : unit -> bool;
      (** does a free hardware context exist right now? *)
  spawn : src:Ssp_ir.Iref.t -> fn:int -> blk:int -> live_in:int64 array -> bool;
      (** try to bind a free context at block [blk] of function [fn] (a
          [Layout.by_index] index, see [Layout.pc_of]); false = ignored.
          [src] is the spawning [Spawn] instruction (for attribution). *)
  output : int64 -> unit;  (** observable output of [Print] *)
  mutable ev_addr : int;
      (** effective address (62-bit, native int) of the most recent
          [Ev_load]/[Ev_store]/[Ev_prefetch]; undefined after other
          events *)
}

(** All constructors are constant (immediate values): the per-instruction
    hot path allocates nothing to report its event. Addresses travel in
    [env.ev_addr]. *)
type event =
  | Ev_plain
  | Ev_load  (** address in [env.ev_addr] *)
  | Ev_store  (** address in [env.ev_addr] *)
  | Ev_prefetch  (** address in [env.ev_addr] *)
  | Ev_branch_taken
  | Ev_branch_not_taken
  | Ev_call
  | Ev_ret
  | Ev_halt
  | Ev_kill
  | Ev_chk_fired
  | Ev_chk_nofire
  | Ev_spawned
  | Ev_spawn_denied
  | Ev_lib  (** live-in buffer access *)

val step_op : env -> Layout.t -> Thread.t -> event
(** Execute the thread's next instruction, a [slow] one, and advance the
    pc (it does not count the instruction: the caller has). The boxed op
    is recovered from the pc through the layout; a target label, callee or
    spawn target named in it is resolved here. Raises [Invalid_argument]
    for an op that always decodes to its own word, and for a call to a
    function the program does not define; a label that does not resolve
    raises when the op branches to it. *)
