(** Compaction of probabilistic documents.

    Compaction shrinks the representation without changing the possible-world
    distribution (up to merging of deep-equal worlds):

    - possibilities with probability ≤ ε are pruned (the remaining mass is
      renormalised — it differs from 1 by at most the pruned mass);
    - structurally equal sibling possibilities are merged, summing their
      probabilities;
    - adjacent {e certain} probability nodes in an element's content are
      fused into one, and empty certain probability nodes are dropped.

    The paper's incremental-improvement story (feedback removes impossible
    worlds) relies on compaction to actually reclaim the space. *)

(** [compact d] applies all rules in one bottom-up pass, memoised on
    {!Pxml.Table}: equal subtrees are compacted once and come out as one
    shared object, and equal possibilities merge into the first of them
    through {!first_equal}. The result is a fixpoint. Raises
    {!Pxml.Invalid} if a possibility's probability is NaN. *)
val compact : Pxml.doc -> Pxml.doc

(** [first_equal choices] is, per possibility, the position of the first
    earlier one with equal nodes ({!Pxml.equal_node}), found by hash. *)
val first_equal : Pxml.choice list -> int option list

(** [prune_threshold] — possibilities below this probability are considered
    impossible by {!compact} (default [1e-12]); exposed for tests. *)
val prune_threshold : float

(** {1 Lossy reduction}

    The paper warns that "reduction should not be pushed too far, because
    eliminating valid possibilities reduces the quality of query answers".
    [prune_unlikely] is the knob that warning is about: it deletes every
    possibility whose probability is below [threshold] and renormalises —
    the representation shrinks, but any answer that only existed in the
    deleted worlds is silently lost. The answer-quality-vs-threshold curve
    is measured by [bench/main.exe ablation]. *)

(** [prune_unlikely ~threshold d] — possibilities with probability
    < [threshold] are removed bottom-up, survivors renormalised, then
    {!compact} is applied. A probability node always keeps at least its
    most likely possibility. *)
val prune_unlikely : threshold:float -> Pxml.doc -> Pxml.doc

(** [prune_to_budget ?node_budget ?world_budget d] is the budgeted form:
    lossless {!compact} first, then {!prune_unlikely} with a geometrically
    escalating threshold (from [1e-6], ×4 per round) until the document has
    at most [node_budget] representation nodes ({!Pxml.node_count}) and at
    most [world_budget] possible worlds ({!Pxml.world_count_int};
    overflowing counts as over budget). Always terminates: at threshold 1
    every probability node keeps only its most likely possibility. This is
    what keeps stores bounded under repeated [integrate_many] folds — and it
    is exactly the lossy reduction the paper warns not to push too far. *)
val prune_to_budget : ?node_budget:int -> ?world_budget:int -> Pxml.doc -> Pxml.doc
