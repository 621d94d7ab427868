(** The seven pointer-intensive benchmarks of the paper's evaluation
    (§4.1): Olden em3d, health, mst, treeadd (depth-first and
    breadth-first) and SPEC CPU2000 mcf, vpr — re-implemented as mini-C
    kernels reproducing each benchmark's delinquent access pattern. *)

val all : Workload.t list
(** In the paper's presentation order: em3d, health, mst, treeadd.df,
    treeadd.bf, mcf, vpr. *)

val find : string -> Workload.t
(** By name; raises [Not_found]. Names of the shape ["gen:<seed>"] resolve
    through the seeded workload generator ({!Gen.workload}) and need not be
    in {!all}. *)

(** How every front end names the program a request is about. *)
type program =
  | Workload of string
      (** a workload by name (see {!find}), compiled at the request's
          scale *)
  | Source of string
      (** mini-C source text, compiled as is — the exact program a
          request or feedback report carries *)

val compile : pass:string -> program -> scale:int -> Ssp_ir.Prog.t
(** The one compile behind the command line, the daemon and the tuner.
    An unknown workload name raises a structured [Ssp_ir.Error.Error]
    whose pass is the caller's [pass]; a [Source] ignores [scale]. *)

val corpus : n:int -> seed:int -> Workload.t list
(** [n] generated workloads with consecutive seeds starting at [seed]
    (see {!Gen}). *)

val test_scale : int
(** A small scale for fast tests. *)
