(** Profile collection: the "first pass" of Figure 1.

    Runs the original binary on the functional interpreter
    ({!Ssp_sim.Funcsim.count}) with the cache hierarchy attached and turns
    its dense per-pc counters into a {!Profile.t}. The pseudo-clock
    advances one cycle per executed instruction and one more per load or
    store (an in-order machine at IPC ≈ 1), which is accurate enough to
    rank loads by miss cycles and to annotate latencies; the real cycle
    models are used for all reported results. *)

val collect : ?config:Ssp_machine.Config.t -> Ssp_ir.Prog.t -> Profile.t
(** [config] defaults to the in-order model (its cache geometry is what
    matters here). The main thread is bounded at 200M instructions, beyond
    which it raises [Failure]. *)
