(** Reference query evaluation by possible-world enumeration.

    The semantics of a query over a probabilistic document is the query's
    answer in every possible world; a value's probability is the total
    probability of the worlds in which it is part of the answer. This
    module implements that definition literally and serves as the ground
    truth for {!Direct}. Exponential — guard with [limit]. *)

module Pxml = Imprecise_pxml.Pxml
module Ast = Imprecise_xpath.Ast

exception Too_many_worlds of float

(** [rank ?limit ?top_k ?tolerance doc query] enumerates all worlds
    (failing with {!Too_many_worlds} if the document has more than [limit]
    choice combinations, default [200_000]), evaluates [query] in each,
    and merges the answers. Values are XPath string-values of the selected
    nodes.

    [top_k] returns only the [k] most likely answers and stops
    enumerating once the remaining probability mass can no longer change
    their order {e and} is at most [tolerance] (default [1e-9]), so the
    reported probabilities are within [tolerance] of the full
    enumeration's. Raises [Invalid_argument] on [top_k <= 0].

    [budget] is a cooperative cancellation token
    ({!Imprecise_resilience.Budget}): it is checked on entry and ticked
    once per enumerated world, so a blown deadline or world pool raises
    [Budget.Exceeded] promptly instead of walking the space to the end. *)
val rank :
  ?budget:Imprecise_resilience.Budget.t ->
  ?limit:float ->
  ?top_k:int ->
  ?tolerance:float ->
  Pxml.doc ->
  string ->
  Answer.t list

(** [rank_expr] is {!rank} on a pre-parsed query. *)
val rank_expr :
  ?budget:Imprecise_resilience.Budget.t ->
  ?limit:float ->
  ?top_k:int ->
  ?tolerance:float ->
  Pxml.doc ->
  Ast.expr ->
  Answer.t list

(** [answer_in_world w query] is the distinct string-values the query
    selects in one world. *)
val answer_in_world : Imprecise_xml.Tree.t list -> Ast.expr -> string list
