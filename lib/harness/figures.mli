(** The paper's tables and figures, regenerated as text.

    Every function runs (or reuses) the per-benchmark simulations of
    {!Experiment} and prints rows matching the corresponding exhibit:

    - {!table1}: the machine models;
    - {!fig2}: speedup with a perfect memory subsystem vs. with perfect
      delinquent loads, on both pipelines (baseline: in-order for the
      in-order rows, OOO for the OOO rows, as in the paper);
    - {!table2}: slice characteristics;
    - {!fig8}: speedups of in-order+SSP, OOO and OOO+SSP over the baseline
      in-order processor;
    - {!fig9}: where delinquent loads are satisfied when they miss L1
      (L2/L3/memory, with partial-hit splits), for the four configurations;
    - {!fig10}: normalized cycle breakdown (L3/L2/L1/Cache+Exec/Exec/Other)
      for em3d, treeadd.df and vpr. *)

val table1 : Format.formatter -> unit -> unit
val fig2 : ?setting:Experiment.setting -> Format.formatter -> unit -> unit
val table2 : ?setting:Experiment.setting -> Format.formatter -> unit -> unit
val fig8 : ?setting:Experiment.setting -> Format.formatter -> unit -> unit
val fig9 : ?setting:Experiment.setting -> Format.formatter -> unit -> unit
val fig10 : ?setting:Experiment.setting -> Format.formatter -> unit -> unit

