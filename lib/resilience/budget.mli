(** Cooperative work budgets: wall-clock deadlines and world/node caps.

    A budget is a cancellation token shared by every piece of a
    computation, across domains: world enumeration ticks it per world,
    the integration candidate grid ticks it per pair, and any holder can
    {!cancel} it. The first exhaustion — deadline passed, work units
    spent, or an explicit cancel — {e trips} the budget: the reason is
    recorded once, the shared cancelled flag is raised so sibling domains
    stop at their next tick, and every subsequent {!check}/{!tick} raises
    {!Exceeded} with the original reason.

    Budgets nest: {!sub} carves a child budget out of the remaining time
    and work units. A child tripping does {e not} trip its parent — the
    degradation ladder ({!Degrade}, {!Imprecise_pquery.Pquery.rank_graded})
    relies on that to give each rung a slice and fall through to the next
    when the slice is spent — while a tripped parent fails every child
    promptly.

    Checks are cheap (an atomic load or two and a clock read), so ticking
    once per world or grid cell is fine. Trips bump
    [resilience.deadline_exceeded], [resilience.world_budget_exceeded] or
    [resilience.cancellations] — once per budget, not per raising domain. *)

type t

(** Why a budget tripped: its deadline passed, its world/work-unit pool
    ran dry, or someone called {!cancel} (including the implicit cancel
    when a sibling domain fails, so the others stop promptly). *)
type reason = Deadline | Worlds | Cancelled

exception Exceeded of reason

(** [create ?timeout_ms ?max_worlds ()] — a budget that trips
    [timeout_ms] milliseconds from now (measured by [Obs.Clock], wall
    time unless a caller installed another clock) and/or after
    [max_worlds] work units have been ticked. With neither limit the
    budget only trips via {!cancel} (or a parent). [Invalid_argument] on
    non-positive limits. *)
val create : ?timeout_ms:int -> ?max_worlds:int -> unit -> t

(** [sub ?fraction t] is a child budget holding [fraction] (default 0.5,
    clamped to [0..1]) of [t]'s remaining time and work units. Ticks on
    the child also drain the parent's pool; a check on the child also
    checks the parent (parent trips win, and carry the parent's reason).
    The child tripping leaves the parent live. *)
val sub : ?fraction:float -> t -> t

(** [check t] raises {!Exceeded} iff [t] (or an ancestor) has tripped or
    its deadline has passed. Consumes nothing. *)
val check : t -> unit

(** [tick ?n t] consumes [n] work units (default 1) from [t] and every
    ancestor, then behaves like {!check}. The unit is whatever the caller
    counts — enumerated worlds in {!Imprecise_pxml.Worlds}, candidate
    pairs in {!Imprecise_integrate.Matching}, sampled worlds in the
    sampling evaluator. *)
val tick : ?n:int -> t -> unit

(** [cancel t] trips [t] with reason {!Cancelled} (idempotent; a budget
    that already tripped keeps its original reason). Never raises — the
    raise happens at the victims' next {!check}. *)
val cancel : t -> unit

(** [exceeded t] is a passive probe: the reason [t] would raise with, or
    [None]. Unlike {!check} it never records a trip and never bumps a
    counter. *)
val exceeded : t -> reason option

(** [remaining_ms t] — milliseconds until [t]'s own deadline (possibly
    negative), or [None] if it has no deadline. *)
val remaining_ms : t -> float option

(** [remaining_worlds t] — work units left in [t]'s own pool, or [None]
    if it is uncapped. *)
val remaining_worlds : t -> int option

val reason_to_string : reason -> string

val pp_reason : Format.formatter -> reason -> unit
