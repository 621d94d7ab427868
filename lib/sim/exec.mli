(** The interface every engine shares: the environment of timing-directed
    callbacks {!Funcsim.step} consults and the events the timing models
    dispatch on. Types only, so the module has no implementation file.

    Every instruction executes through {!Funcsim.step} on its predecoded
    word. Timing-directed decisions — whether [Chk_c] finds a free
    context, whether [Spawn] succeeds — are delegated to the [env]
    callbacks; the functional simulator and the cycle simulators plug in
    different policies.

    Speculative threads never write memory, allocate or print: stores,
    [Alloc] and [Print] in a speculative context execute as nops ([Alloc]
    yields 0; the tool excludes them from slices anyway, the machine
    enforces it, §2), and an indirect call through an unknown code id is
    a nop there. Loads in speculative threads never fault (unmapped
    memory reads as zero, as everywhere). *)

type env = {
  mem : Memory.t;
  chk_free : unit -> bool;
      (** does a free hardware context exist right now? *)
  spawn : Thread.t -> int -> bool;
      (** [spawn th target]: try to bind a free context at pc id [target],
          its live-in buffer a copy of [th]'s [lib_out]; false = ignored.
          [th.pc] is the spawn's own pc id (for attribution). *)
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
