(** Hash-consing of deep-equal subtrees.

    Integration folds re-create deep-equal subtrees endlessly: the same
    person element appears in both sources, in every world of the merged
    document, and again when a third source is folded in. Interning maps
    every structurally-equal subtree to one canonical, shared value, so

    - structural equality on interned values starts with a {e pointer
      check} ({!Pxml.equal_node} and {!Imprecise_xml.Tree.deep_equal} both
      fast-path on physical equality);
    - a full structural hash comes out of the same traversal
      ({!tree_hashed}), which is what {!Imprecise_oracle.Decision_cache}
      keys are built from, once per verdict-grid row and column.

    Pools are weak: the canonical representatives are pointed to only
    weakly, so interning never pins memory — a subtree dropped by every
    client is collected as usual. Nothing remembers which trees were
    interned, so every call traverses its argument: O(node occurrences),
    one pool probe per node. Callers that need a subtree's canonical form
    or hash repeatedly compute it once and keep it.

    All functions are thread-safe (one internal mutex) and
    semantics-preserving to the last bit: probabilities are compared
    bitwise, never with an epsilon, so an interned document is
    indistinguishable from its original under every query.

    Counters: [pxml.intern.hit] (a pool already held an equal value),
    [pxml.intern.miss] (a new distinct structure entered a pool). *)

module Tree = Imprecise_xml.Tree

(** {1 Plain XML trees} *)

(** [tree t] is the canonical representative of [t]: structurally equal
    inputs return physically equal outputs. *)
val tree : Tree.t -> Tree.t

(** [tree_hashed t] is [(tree t, h)] where [h] is the full structural
    hash of the canonical form, both from one traversal. Deep-equal inputs
    give the same pointer and the same hash. *)
val tree_hashed : Tree.t -> Tree.t * int

(** {1 Probabilistic documents} *)

(** [doc d] interns a whole probabilistic document: every deep-equal
    subtree — node, possibility, probability node — is shared. *)
val doc : Pxml.doc -> Pxml.doc

(** {1 Accounting} *)

(** [distinct_nodes d] is the number of {e physically} distinct
    representation nodes reachable from [d] — on an interned document, the
    deduplicated size: what a shared encoding writes, against
    {!Pxml.node_count} which counts every occurrence. *)
val distinct_nodes : Pxml.doc -> int
