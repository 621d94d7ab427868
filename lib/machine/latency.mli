(** Execution latencies of non-memory instructions, used both by the cycle
    simulators and by the tool's scheduling heuristics ("the machine model
    provides latency estimates for other instructions", §3.2.1). *)

val of_op : Ssp_isa.Op.t -> int
(** Latency in cycles, excluding memory access time (loads report 0 here;
    their latency is the cache access outcome). *)
