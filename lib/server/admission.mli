(** Per-tenant admission queues with round-robin fairness.

    The serve loop enqueues each admitted work request under its
    declaring tenant and drains at most [max_batch] per round via
    {!select}, one request per tenant per visit, so every active tenant
    gets the same per-round share regardless of how deep any one
    tenant's queue is. Not thread-safe: owned by the single select
    loop. *)

type 'a t

val create : unit -> 'a t

val enqueue : 'a t -> tenant:string -> 'a -> unit

val backlog : 'a t -> int
(** Total queued items across tenants — what the saturation bound
    ([max_queue]) is checked against. *)

val select : 'a t -> max:int -> (string * 'a) list
(** Dequeue up to [max] items in round-robin order, one per tenant per
    visit. The rotation persists across calls, so service resumes with
    the tenant after the last one served. *)

val drain : 'a t -> (string * 'a) list
(** Remove and return everything (shutdown: reply to stragglers rather
    than dropping them silently). *)
