(** Functional semantics of a single instruction, on the boxed
    {!Ssp_isa.Op.t} form.

    [step_op] performs all architectural effects (registers, memory, program
    counter, frames) and reports what happened so the timing models can
    account latency. Timing-directed decisions — whether [Chk_c] finds a
    free context, whether [Spawn] succeeds — are delegated to the [env]
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
  spawn : src:Ssp_ir.Iref.t -> fn:string -> blk:int -> live_in:int64 array -> bool;
      (** try to bind a free context; false = ignored. [src] is the
          spawning [Spawn] instruction (for attribution). *)
  output : int64 -> unit;  (** observable output of [Print] *)
  mutable ev_addr : int64;
      (** effective address of the most recent [Ev_load]/[Ev_store]/
          [Ev_prefetch]; undefined after other events *)
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

val step_op : env -> Thread.t -> Ssp_ir.Prog.func -> Ssp_isa.Op.t -> event
(** Execute one instruction and advance the pc: the caller passes the
    thread's current function and the instruction at its pc (after
    fall-through, see {!Smt.layout_of}). The cycle models fetch the
    instruction anyway for their own bookkeeping, and {!Funcsim.exec}
    defers its rare ops here. *)
