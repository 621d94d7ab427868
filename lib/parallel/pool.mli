(** A fixed-size domain pool with one claim counter per batch.

    The pool exists so the tool's embarrassingly parallel layers — the
    per-delinquent-load slice/schedule/trigger pipeline, the
    workload × config simulation grid and the daemon's request batches —
    can fan out across OCaml 5 domains while keeping their outputs
    byte-identical to a sequential run:

    - {b Deterministic ordering}: [map] and [map_array] always deliver
      results in input order, regardless of which domain ran which task
      or in what order tasks finished.
    - {b Per-task exception capture}: a task that raises does not tear
      down the pool or the sibling tasks; the exception (with its
      backtrace) is re-raised in the caller once the batch has drained,
      and when several tasks raise, the one with the lowest input index
      wins — again matching what a sequential left-to-right run would
      have raised first.
    - {b Sequential fallback}: a pool created with [jobs <= 1] spawns no
      domains at all; [map_array] is [Array.map] on the caller's domain,
      so [jobs:1] is not merely "parallelism with one worker" but the
      exact sequential code path.

    Scheduling: a batch is its task array, a claim counter and a count of
    unfinished tasks. Every worker takes the next index with one atomic
    increment until the array is spent. The caller's domain participates
    as a worker, so [create ~jobs:n] spawns [n - 1] domains. *)

type t

val create : jobs:int -> t
(** A pool executing up to [max 1 jobs] tasks concurrently ([jobs - 1]
    spawned domains plus the calling domain). Cheap for [jobs <= 1]. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must be idle. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] (also on exception). *)

val jobs : t -> int
(** The concurrency the pool was created with (>= 1). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with the calls distributed over the pool. Results
    are in input order; exceptions are re-raised lowest-index first. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map] over arrays. *)
