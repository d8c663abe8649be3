(** Probabilistic querying front-end.

    [rank] answers a query over a probabilistic document with an
    amalgamated ranked answer (paper §VI): distinct values, each with the
    probability that it belongs to the query answer. It uses the exact
    {!Direct} evaluator whenever the query is in its class and falls back
    to possible-world enumeration ({!Naive}) otherwise.

    On the enumeration path [top_k] stops enumerating early once the
    leading answers are provably final (see {!Naive.rank} for the exact
    contract). [rank ~cache] adds a process-wide LRU answer cache keyed by
    the owning collection's document generation, so repeated queries
    against an unchanged store are O(1). {!rank_graded} is the only other
    ranking entry point: it never fails on a budget and grades its answer. *)

module Pxml = Imprecise_pxml.Pxml
module Eval = Imprecise_xpath.Eval

type strategy =
  | Auto
      (** consult the static planner ({!plan}): direct when it proves the
          query inside the tractable fragment, else enumeration pre-sized
          from the cost bounds *)
  | Direct_only
  | Enumerate_only
  | Sample of { n : int; seed : int }
      (** Monte-Carlo estimate: draw [n] worlds from the document's
          distribution and report answer frequencies. Works on documents of
          any size; probabilities carry sampling error O(1/√n). *)

exception Cannot_answer of string
(** The chosen strategy cannot answer this query on this document (e.g.
    enumeration over too many worlds, or [Direct_only] on an unsupported
    query). *)

(** [compile query] parses [query] into a handle, as {!rank} does on every
    call; raises like {!Imprecise_xpath.Parser.parse_exn} on syntax
    errors. Exposed so callers can time or validate parsing on its own. *)
val compile : string -> Eval.compiled

(** [rank ?budget ?strategy ?static_check ?world_limit ?top_k ?cache doc
    query] — [world_limit] guards the enumeration fallback (default
    200_000 choice combinations). [top_k] keeps only the [k] most likely
    answers, terminating the enumeration early when their order can no
    longer change and the unprocessed mass is at most [1e-9]; under
    [Direct_only]/[Auto]-direct/[Sample] it merely truncates the ranked
    list, which is exact there. Raises {!Cannot_answer} on [top_k <= 0].

    [static_check] (default [true]) runs the static analyzer
    ({!Imprecise_analyze.Query_check.statically_empty}) against the
    document's path summary first; a query that provably selects nothing
    in any possible world returns [[]] without evaluating a single world
    (counter [pquery.static_pruned], span [analyze.check]). Pass [false]
    to force full evaluation — the differential fuzz harness does, to
    check the prune against ground truth rather than against itself.

    [cache = (collection, generation)] memoizes the answer in the
    process-wide {!Cache.global}, keyed by the query text and the variant
    (strategy plus [top_k]). [collection] names the document (typically
    its store name) and [generation] is its store generation
    ({!Imprecise_store.Store.generation}): entries for superseded document
    states never match again and age out of the LRU. The caller must pass
    the [doc] that [(collection, generation)] actually refers to —
    {!Imprecise.query_store} does this bookkeeping for you. Exceptions are
    not cached: in particular a budget trip mid-computation leaves the
    cache exactly as it was, so cancelled queries cannot poison it.

    [budget] ({!Imprecise_resilience.Budget}) is checked on entry, ticked
    per enumerated world on the enumeration path and per drawn world on
    the sampling path; a trip raises [Budget.Exceeded]. Use
    {!rank_graded} instead to turn budget trips into a degraded answer
    rather than an exception. *)
val rank :
  ?budget:Imprecise_resilience.Budget.t ->
  ?strategy:strategy ->
  ?static_check:bool ->
  ?world_limit:float ->
  ?top_k:int ->
  ?cache:string * int ->
  Pxml.doc ->
  string ->
  Answer.t list

(** [rank_graded ?budget ?world_limit ?top_k doc query] is the
    "good is good enough" entry point: a degradation ladder
    ({!Imprecise_resilience.Degrade}) that always returns an answer,
    tagged with how approximate it is.

    - {b exact} — {!rank} under 60% of [budget]; result grade
      {!Imprecise_resilience.Degrade.Exact}.
    - {b top_k} — enumeration with early termination ([top_k] answers,
      default 10, tolerance [1e-2]) under 80% of the remaining budget;
      grade [Approximate] with [tolerance = 1e-2], [confidence = 1.]
      (the early-stop bound is deterministic).
    - {b sample} — a fixed 4096-world Monte-Carlo estimate, {e without}
      budget, so it always returns; grade [Approximate] with the
      Hoeffding tolerance [≈0.031] at confidence [0.999].

    [top_k <= 0] raises {!Cannot_answer} on entry, before any rung runs.
    Only budget trips, {!Naive.Too_many_worlds} and {!Cannot_answer}
    fall through the ladder (counter [pquery.degraded], and
    [resilience.degradations] per step); other exceptions — and any
    failure of the sampling rung — propagate. Results are never cached:
    a degraded answer is an artefact of this call's budget, not of the
    document. *)
val rank_graded :
  ?budget:Imprecise_resilience.Budget.t ->
  ?world_limit:float ->
  ?top_k:int ->
  Pxml.doc ->
  string ->
  Answer.t list Imprecise_resilience.Degrade.graded

(** [plan doc query] is the static plan {!rank} with [Auto] consults: the
    route, cost/cardinality bounds, and discharged proof obligations or
    [P00n] fallback reasons (see {!Imprecise_analyze.Plan}). Exposed for
    [imprecise check --plan] and the certification harnesses; [rank]
    computes it internally (span [analyze.plan], histogram [analyze.plan]
    in ms, event [pquery.plan], op note ["plan"]). *)
val plan : Pxml.doc -> string -> Imprecise_analyze.Plan.t

(** [used_strategy doc query] reports which evaluator {!rank} with [Auto]
    would use ([`Direct] or [`Enumerate]). This is the planner's route
    prediction — exact, certified by the differential fuzz harness: the
    planner and the direct evaluator share one fragment definition
    ([Imprecise_xpath.Fragment]) and decide the data-dependent checks
    identically (summary automaton vs document walk). *)
val used_strategy : Pxml.doc -> string -> [ `Direct | `Enumerate ]

(** {1 Explanations}

    Why does an answer have the probability it has? [explain] classifies
    the [k] most likely worlds (found without enumeration, see
    {!Imprecise_pxml.Worlds.most_likely}) by whether the value is part of
    the query answer there. The probability mass covered by those [k]
    worlds bounds how representative the explanation is. *)

type explanation = {
  prob : float;  (** P(value ∈ answer), from {!rank} with [Auto] *)
  supporting : (float * Imprecise_xml.Tree.t list) list;
      (** most likely worlds in which the value is in the answer *)
  opposing : (float * Imprecise_xml.Tree.t list) list;
      (** most likely worlds in which it is not *)
  covered : float;  (** total probability mass of the worlds examined *)
}

(** [explain ?k doc query value] — [k] (default 10) bounds how many worlds
    are examined. The query is parsed and ranked exactly once. *)
val explain : ?k:int -> Pxml.doc -> string -> string -> explanation
