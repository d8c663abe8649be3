(** Direct probabilistic query evaluation — no world enumeration.

    Exploits the independence structure of the layered model: distinct
    probability nodes choose independently, sibling possibilities are
    mutually exclusive. The supported query class is the widened direct
    fragment defined once in {!Imprecise_xpath.Fragment} (the static
    planner {!Imprecise_analyze.Plan} consumes the same definition, so
    its route prediction is exact). For queries in the fragment the
    result is {e exact} (property-tested against {!Naive}):

    - the query is a location path (absolute or relative — evaluation
      starts at the document node either way);
    - the steps before the {e binder} use the child or descendant axis
      with name/wildcard tests and no predicates ([descendant::t] is
      folded into a [//] separator);
    - predicates and the remaining steps only inspect the binder
      element's subtree: downward axes, [contains]/string functions,
      quantified expressions, and positional predicates {e below} the
      binder (per-source-item, hence subtree-local) are all admitted; a
      positional test on the binder step itself shifts the binder one
      step up when possible, and upward axes or absolute paths inside
      predicates are rejected ([P001]–[P004], see [doc/analysis.md]);
    - binder elements are not nested within each other in any world
      ([P005]), and each occurrence subtree stays under
      [Fragment.default_local_limit] local worlds ([P006]).

    This covers the paper's demo queries, e.g.
    [//movie[.//genre="Horror"]/title] and
    [//movie[some $d in .//director satisfies contains($d,"John")]/title].

    How it works: each element the path can bind is an {e occurrence}; its
    subtree's local worlds (usually a handful — one per value conflict) give
    a local distribution of emitted values, memoised per shared subtree.
    For each value [v], [P(v ∈ answer)] is [1 − P(no occurrence emits v)],
    computed compositionally: product across independent probability nodes
    and occurrences, possibility-weighted sum within a probability node. *)

module Pxml = Imprecise_pxml.Pxml
module Ast = Imprecise_xpath.Ast

exception Unsupported of string
(** The query is outside the supported class (or a local subtree exceeds
    [Fragment.default_local_limit] worlds); callers should fall back to
    {!Naive}. *)

(** [rank_expr doc expr] is the exact amalgamated ranked answer. *)
val rank_expr : Pxml.doc -> Ast.expr -> Answer.t list

(** [supported expr] checks the query class without evaluating. *)
val supported : Ast.expr -> bool

(** {1 Feedback on the emission walk}

    The walk behind {!rank_expr} is a decomposable circuit over the
    document's independent choices, so an assertion about one value can be
    conditioned on, or pruned by, folds over that same walk — no world is
    enumerated. Both raise {!Unsupported} exactly when {!rank_expr}
    does. *)

(** [condition doc expr ~value ~present] is the exact posterior of [doc]
    given that [value] is ([present]) or is not in [expr]'s answer; [None]
    when that event has probability 0 (decided exactly, by possibility, not
    by a float threshold). Untouched subtrees are shared with [doc]; an
    occurrence whose emission of [value] is uncertain gets one probability
    node over its local worlds on the asserted side (tag and attributes
    kept); a sequence that can emit [value] in several places splits by the
    first place that does, as choices of the enclosing probability node.
    Not compacted. *)
val condition :
  Pxml.doc ->
  Ast.expr ->
  value:string ->
  present:bool ->
  Pxml.doc option

(** The tolerance of "(about) certainly false" in {!prune}: [1e-9]. *)
val eps : float

(** [prune doc expr ~value ~present] deletes every possibility whose
    forcing makes the assertion (about) certainly false — [P(value) <= eps]
    when asserted present, [>= 1 - eps] when asserted absent — and
    renormalises the probability nodes it touched. The hypothetical
    probabilities of all possibilities come from one inside/outside pass
    (local worlds for probability nodes inside an occurrence). [None] when
    the assertion itself is about certainly false, or a probability node
    would lose every possibility. Not compacted. *)
val prune :
  Pxml.doc ->
  Ast.expr ->
  value:string ->
  present:bool ->
  Pxml.doc option
