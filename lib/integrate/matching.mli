(** Matchings between two child sequences.

    When integrating the children of two matched elements, the system must
    decide which child of the one source refers to the same real-world
    object as which child of the other. The paper's generic rule "no two
    siblings in one source refer to the same rwo" makes a consistent set of
    decisions a {e partial injective matching} of the bipartite candidate
    graph. Edges carry the Oracle's match probability; an edge with
    probability 1 is {e forced} (the Oracle said [Same]).

    The probability of a matching [M] is
    [∏_{e∈M} p(e) · ∏_{e∉M} (1−p(e))], normalised over all injective
    matchings — i.e. independent per-edge coins conditioned on
    injectivity. *)

type edge = { left : int; right : int; prob : float }

type graph = { n_left : int; n_right : int; edges : edge list }

(** A connected component of the candidate graph. Distinct clusters choose
    their matchings independently. *)
type cluster = { lefts : int list; rights : int list; cluster_edges : edge list }

exception Too_many of int
(** Raised by {!matchings} when the enumeration exceeds the given limit. *)

exception Infeasible of string
(** Raised when every matching has probability 0 — the Oracle forced
    contradictory pairs. *)

(** [clusters g] partitions the vertices that occur in at least one edge
    into connected components, ordered by smallest left index. Vertices
    with no incident edge are not part of any cluster. *)
val clusters : graph -> cluster list

(** [isolated g] is the (lefts, rights) with no incident edges. *)
val isolated : graph -> int list * int list

(** [matchings ?limit cluster] enumerates every partial injective matching
    of the cluster with non-zero probability, as
    [(normalised probability, pairs)] with pairs sorted by left index. The
    empty matching is included (unless forced edges exclude it). Raises
    {!Too_many} if more than [limit] (default [max_int]) matchings exist,
    {!Infeasible} if no matching has positive probability. *)
val matchings : ?limit:int -> cluster -> (float * (int * int) list) list

(** [count_matchings cluster] is the number of positive-probability
    matchings, without materialising them. *)
val count_matchings : cluster -> int

type tally = {
  generated : int;
  pairs : int;
  same : int;
  unsure : int;
}
(** Per-grid bookkeeping: [generated] is the full grid size
    ([n_left * n_right] — every pair that exists), [pairs] the cells
    actually evaluated ([verdict] called), [same]/[unsure] the verdicts of
    those kinds. The cells a candidate index skipped number
    [generated - pairs]; without an index [generated = pairs]. Collected
    privately per domain and summed, so the totals are exact whatever
    [jobs] is. *)

(** [graph ?jobs ~n_left ~n_right verdict] builds the candidate graph by
    consulting [verdict left right] for every cell of the grid: [Same] ⇒
    forced edge, [Different] ⇒ no edge, [Unsure p] ⇒ edge with probability
    [p] (clamped away from 0 and 1), and returns the tally alongside.

    [candidates] (from {!Blocking.candidates}) restricts each row [i] to
    the cells [candidates i]: only those are evaluated (and ticked against
    the budget); the rest of the row is skipped without being visited. The
    lists must be ascending, duplicate-free right indices in
    [0, n_right) — ascending order preserves the row-major edge order, so
    the band sharding below stays bit-identical for every [jobs] with any
    blocker. [candidates] is called from every band domain, so it must be a
    pure read (compiled plans are).

    [jobs] (default 1) shards the grid into contiguous row bands, one OCaml
    domain per band. Each band buffers its edges and tally privately; the
    buffers are concatenated in band order, which reproduces the
    sequential row-major edge order exactly — the result is bit-identical
    to [jobs = 1] for every [jobs]. [verdict] must therefore be safe to
    call from multiple domains at once (pure, or internally synchronised),
    and must not depend on call order. Grids smaller than an internal
    threshold run sequentially regardless of [jobs]. If any band's
    [verdict] raises (e.g. an Oracle conflict), every domain is joined
    first and then the first failure in band order is re-raised —
    whichever band it came from; no domain leaks.

    [budget] ({!Imprecise_resilience.Budget}) is ticked once per grid
    cell; a blown deadline or work pool raises [Budget.Exceeded], and
    with [jobs > 1] the tripping band cancels the shared budget so its
    siblings stop at their next tick instead of finishing their bands. *)
val graph :
  ?budget:Imprecise_resilience.Budget.t ->
  ?candidates:(int -> int list) ->
  ?jobs:int ->
  n_left:int ->
  n_right:int ->
  (int -> int -> Imprecise_oracle.Oracle.verdict) ->
  graph * tally
