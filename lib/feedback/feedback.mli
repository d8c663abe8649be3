(** The user-feedback half of the information cycle (paper Fig. 1, §VII).

    Feedback on a query answer is traced back to possible worlds: asserting
    that a value is (in)correct removes every world inconsistent with the
    assertion and renormalises the rest — Bayesian conditioning on the
    answer event. Iterated feedback continues the semantic integration
    incrementally, which is the paper's "good is good enough" end game.
    (The paper's demo left this unimplemented; it is built here.)

    {!assert_answer} and {!prune} pick one of two routes, as
    [Pquery.rank]'s [Auto] does (counters [feedback.path.direct] /
    [feedback.path.enumerate], op note ["path"]):
    - {b direct} — every query in the direct fragment
      ({!Imprecise_pquery.Direct}): one structural pass over the document's
      emission walk ({!Imprecise_pquery.Direct.condition},
      {!Imprecise_pquery.Direct.prune}). No world is enumerated, there is
      no world limit, and untouched subtrees are carried over as they are;
    - {b enumerate} — everything else ([count(...)], nested binder
      occurrences, oversized occurrences): world filtering, guarded by a
      world-count limit, and hypothetical re-ranks for pruning.

    Both routes compact their result. *)

module Xml = Imprecise_xml
module Pxml = Imprecise_pxml.Pxml

type error =
  | Too_many_worlds of float  (** enumeration route only *)
  | Contradiction  (** the assertion has probability 0 — no world survives *)
  | Bad_query of string  (** the query does not parse *)

val pp_error : Format.formatter -> error -> unit

(** [condition ?limit doc keep] keeps exactly the worlds satisfying [keep]
    (given the world as a canonical forest), renormalises and compacts.
    This is the enumeration route's conditioning, for an arbitrary world
    predicate: it enumerates and merges every world (refusing past [limit]
    choice combinations, default 200,000) and rebuilds the document from
    the surviving world list. *)
val condition :
  ?limit:float -> Pxml.doc -> (Xml.Tree.t list -> bool) -> (Pxml.doc, error) result

(** [assert_answer ?limit doc ~query ~value ~correct] conditions on the
    event "[value] is in the answer of [query]" being [correct]: the exact
    posterior. E.g. after the horror-movies query, a user confirming 'Jaws'
    removes every world in which Jaws is not a horror movie.

    On the direct route the posterior keeps the document's structure:
    probability nodes are reweighted locally, occurrences whose emission of
    [value] is uncertain get one probability node over their local worlds,
    and [Contradiction] is decided exactly (by possibility, not by a float
    threshold). [limit] applies to the enumeration route only. *)
val assert_answer :
  ?limit:float ->
  Pxml.doc ->
  query:string ->
  value:string ->
  correct:bool ->
  (Pxml.doc, error) result

(** [certainty doc] is the probability of the most likely world — 1 when
    integration is complete. It enumerates and merges worlds, so it is
    guarded by the 200,000-combination limit (0 past it). *)
val certainty : ?limit:float -> Pxml.doc -> float

(** {1 Structure-preserving pruning}

    The paper's phrasing — feedback is "used to remove data related to
    impossible worlds from the database" — suggests an operation cheaper
    to reason about than the exact posterior: for every possibility of
    every probability node, test whether the assertion is {e certainly
    violated} whenever that possibility is chosen; if so, delete the
    possibility (and its whole subtree) in place, then compact and
    renormalise.

    Pruning keeps exactly the worlds consistent with the assertion (same
    support as {!assert_answer}) but renormalises locally instead of
    computing the exact posterior; the document only ever shrinks. *)

(** [prune doc ~query ~value ~correct] returns [Contradiction] if the
    assertion has probability (about) 0, or if pruning would empty a
    probability node. On the direct route the hypothetical probability of
    every possibility comes from one inside/outside pass over the emission
    walk, which reaches the fixpoint at once. The enumeration route is
    {!prune_by_ranks}. *)
val prune :
  Pxml.doc ->
  query:string ->
  value:string ->
  correct:bool ->
  (Pxml.doc, error) result

(** [prune_by_ranks doc ~query ~value ~correct] is {!prune}'s enumeration
    route, for any query: each possibility of each probability node costs
    one hypothetical [Pquery.rank], deepest node first, each read as the
    earlier prunes left it, in two rounds. Probability nodes whose
    hypothetical evaluation cannot be answered (enumeration too large) are
    left untouched — pruning is conservative, never wrong. On the direct
    fragment it gives {!prune}'s result, at far greater cost. *)
val prune_by_ranks :
  Pxml.doc ->
  query:string ->
  value:string ->
  correct:bool ->
  (Pxml.doc, error) result
