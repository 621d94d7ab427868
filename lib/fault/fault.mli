(** Deterministic, seed-driven fault injection.

    Instrumented code registers named {e sites} with {!site} and asks
    {!fire} whether to inject at each opportunity.  A {e plan} (seed +
    per-site probability/limit) is installed for the dynamic extent of a
    campaign with {!with_plan}; with no plan installed every query is a
    single ref read, so production runs pay nothing.

    Decisions are pure functions of [(seed, site name, key)].  Callers
    that can key a decision by a stable identity (e.g. a delinquent
    load's [Iref.hash]) get decisions independent of evaluation order,
    so the loads of one adaptation can be visited in any order.  Unkeyed
    queries consume a per-site counter stream, which is deterministic for
    single-threaded callers such as the simulators. *)

type site

val site : string -> site
(** [site name] interns [name] in the global registry (idempotent,
    thread-safe).  Call at module init so the registry lists every site
    even before any plan runs. *)

val site_name : site -> string

val all_sites : unit -> site list
(** Every registered site, in registration order. *)

(** {1 Plans} *)

type spec = { prob : float; limit : int option }

val spec : ?limit:int -> float -> spec

type plan

val make : seed:int -> (string * spec) list -> plan

val install : plan -> unit
val clear : unit -> unit

val with_plan : plan -> (unit -> 'a) -> 'a
(** Install [plan] for the duration of the callback (cleared on exit,
    including exceptional exit).  Plans are ambient global state: run
    campaigns sequentially, not concurrently. *)

val active : unit -> bool
(** Whether any plan is currently installed. *)

val fire : ?key:int -> site -> bool
(** Should this site inject now?  Always [false] with no plan installed
    or when the site has no spec in the plan.  With [key], the decision
    depends only on [(seed, site, key)]; without it, on the per-site
    query counter. Firing stops once the site's [limit] is reached. *)

(** {1 Reporting} *)

type count = { site : string; queried : int; fired : int }

val counts : plan -> count list
(** Per-site query/fire totals for sites named in the plan, sorted by
    site name. *)

val fired_total : plan -> int

(** {1 Spec parsing} *)

val parse_specs : string -> ((string * spec) list, string) result
(** Parse a ["site=prob,site=prob:limit,..."] list, as accepted by
    [sspc chaos --faults].  Probabilities must lie in [[0,1]]. *)
