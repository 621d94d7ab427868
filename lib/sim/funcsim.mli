(** The one instruction semantics and the functional (non-timing)
    interpreter. {!step} executes one predecoded {!Decode} word; the cycle
    cores call it for every instruction they issue, and every functional
    run of a program goes through {!exec}, which inlines it.

    Three uses, one per {!probe}:
    - reference semantics and observable-output capture ({!run}), and
      differential testing of adapted binaries: with [spawning] disabled
      every [Chk_c] behaves as a nop, so an adapted binary must produce
      exactly the original's outputs; with [spawning] enabled speculative
      threads run to completion (interleaved coarsely) and must not change
      the outputs either;
    - profile collection ({!count}, the first pass of Figure 1);
    - the fast-forward windows of sampled simulation ([Smt.fast_forward]),
      which warm the caches and branch predictor. *)

type counts = {
  hier : Hierarchy.t;  (** accessed at the profiler's pseudo-clock *)
  mutable mem_ops : int;  (** loads and stores so far *)
  blocks : int array;
      (** per {!Layout} pc id: entries into the block starting there (an
          empty block shares its successor's pc id and counts nothing) *)
  branches : int array;
      (** 2 per pc id: conditional branch taken, not taken *)
  loads : int array;
      (** 6 per pc id: loads satisfied at L1, L2, L3, memory; partial
          hits (line in transit); cycles beyond an L1 hit *)
  site_calls : int array;
      (** per pc id: calls made by the decoded call there (it has one
          callee); folded into [calls] by {!count} *)
  calls : (int * string, int) Hashtbl.t;
      (** (call-site pc id, callee) → calls, complete after {!count}; a
          decoded call site enters it on its first call *)
}
(** Dense profile counters for the main thread. Each load or store
    accesses [hier] at cycle (main instructions executed + [mem_ops]):
    an in-order machine at IPC 1 that spends one more cycle per data
    access. Arrays are sized by [Layout.n_pcs] and start at zero. *)

type probe =
  | Quiet  (** architectural effects only *)
  | Warm of Hierarchy.t * Bpred.t
      (** functional warming: caches (untimed, see {!Hierarchy.warm})
          and branch predictor, as thread 0 *)
  | Count of counts  (** profile counters *)

val step : probe -> Layout.t -> Exec.env -> Thread.t -> int -> Exec.event
(** [step probe layout env th w] executes one instruction, the predecoded
    word [w] at the thread's pc ([layout.code.(th.pc)]): the architectural
    effects, the pc advance and the thread's instruction count, and what
    [probe] observes of it (as in {!exec}). The effective address of a
    load, store or prefetch is left in [env.ev_addr]. Every engine executes
    every instruction through here — the cycle cores with [Quiet], timing
    the returned event themselves — and every op has its own arm; [spawn]
    and [chk.c] consult [env]'s callbacks. A speculative thread's stores,
    [alloc] (it yields 0) and [print] do nothing, and its [icall] through
    an unknown code id is a nop; the main thread's raises [Failure]
    ["Exec: indirect call to unknown code id N"]. *)

val exec :
  probe -> Layout.t -> Exec.env -> Thread.t -> instrs:int -> int
(** Execute up to [instrs] instructions of the (active) thread with
    {!step}, or until it halts, kills itself or returns from its outermost
    frame; returns the count executed. *)

type result = {
  outputs : int64 list;  (** values printed by [Print], in order *)
  instrs : int;  (** dynamic instructions of the main thread *)
  spawns : int;  (** accepted spawn requests *)
}

val run : ?spawning:bool -> Ssp_ir.Prog.t -> result
(** Execute from the program entry; the main thread is bounded at 200M
    instructions, beyond which it raises [Failure]. With [spawning]
    (default false) a spawned thread runs in 64-instruction bursts
    interleaved with the main thread's, mimicking concurrency coarsely;
    at most 3 speculative contexts exist at once (4 contexts − main, a
    pool the spawns reuse without allocating), and one is killed after
    1M instructions. *)

val count : counts -> Layout.t -> Ssp_ir.Prog.t -> int
(** [run] without spawning under [Count], with the program's layout, then
    [site_calls] folded into [calls]; returns the main thread's
    instruction count. *)
