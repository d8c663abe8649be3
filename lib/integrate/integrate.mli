(** Probabilistic integration (paper §III).

    Integration descends the two source documents from their (matching)
    roots. At each pair of merged elements the child sequences are
    integrated:

    - child tags the DTD limits to at most one occurrence are reconciled
      directly — deep-equal values merge, conflicting values become a local
      probability choice (this is how the Fig. 2 DTD rejects the
      two-phones-John world);
    - the remaining children form a bipartite candidate graph, with edges
      weighted by the Oracle's verdicts; every partial injective matching
      of the graph is one possibility;
    - matched pairs are merged recursively (conflicting text becomes a
      local choice); unmatched children are kept as certain subtrees.

    The candidate graph decomposes into connected {e clusters} that choose
    independently. Two representation strategies are offered:

    - [factorize = false] (default, faithful to the paper's system): all
      clusters of one parent are expanded jointly into a single probability
      node — the representation grows with the {e product} of cluster
      matching counts, which is exactly the data explosion the paper's
      Table I and Figure 5 measure;
    - [factorize = true] (this repo's improvement, see DESIGN.md): one
      probability node per cluster, so independent uncertainty only {e adds}
      representation nodes.

    {!stats} runs the same algorithm but computes exact node and world
    counts without materialising the result, which is how the large points
    of Figure 5 are produced. *)

module Xml = Imprecise_xml
module Pxml = Imprecise_pxml
module Oracle = Imprecise_oracle

type config = {
  oracle : Oracle.Oracle.t;
  dtd : Xml.Dtd.t;
  factorize : bool;
  value_conflict : Xml.Tree.t -> Xml.Tree.t -> float;
      (** weight of the {e left} value when two values for the same field
          conflict; default: constant 0.5 *)
  reconcile : string -> string -> string -> string option;
      (** [reconcile tag left right] may resolve a value conflict under a
          leaf [tag] to one canonical value — knowledge such as "these are
          the same director name in two conventions". Default: never. *)
  blocker : Blocking.spec;
      (** Entity-resolution blocking ({!Blocking}): compiles a per-grid
          candidate plan (key buckets, inverted q-gram index, or sorted
          neighbourhood) so only plausible pairs are {e visited} at all —
          skipped pairs never reach the Oracle. Default
          {!Blocking.All_pairs} (full grid). Recall safety relative to the
          Oracle is the caller's contract, certified for the shipped
          presets by [dune build @block-stress]. *)
  max_possibilities : int;
      (** materialisation cap for a single probability node; {!integrate}
          fails with [Too_large] beyond it (default 1_000_000). A single
          cluster is also capped at 1_000_000 matchings. *)
  jobs : int;
      (** OCaml domains scoring each candidate grid (default 1). Any value
          produces a bit-identical result to [jobs = 1] — the grid is
          sharded into contiguous row bands whose edge buffers and tallies
          are merged deterministically (see doc/integrate.md). Requires
          the Oracle's rules, [value_conflict] and the blocker's key
          function to be pure. *)
  decisions : Oracle.Decision_cache.t option;
      (** memoize Oracle verdicts by subtree pair across (and within)
          runs; default [None]. See {!Oracle.Decision_cache} for the
          purity contract. *)
  budget : Imprecise_resilience.Budget.t option;
      (** cooperative deadline / work-pool token (default [None]): ticked
          once per candidate-grid cell, and during
          {!integrate_incremental} also once per enumerated local world
          and touched choice combination. A trip surfaces as
          [Error (Budget_exceeded _)], never as an exception, and with
          [jobs > 1] cancels the sibling band domains at their next tick.
          See doc/resilience.md. *)
}

(** [config ~oracle ()] with defaults described above. Raises
    [Invalid_argument] if [jobs < 1]. *)
val config :
  oracle:Oracle.Oracle.t ->
  ?dtd:Xml.Dtd.t ->
  ?factorize:bool ->
  ?value_conflict:(Xml.Tree.t -> Xml.Tree.t -> float) ->
  ?reconcile:(string -> string -> string -> string option) ->
  ?blocker:Blocking.spec ->
  ?max_possibilities:int ->
  ?jobs:int ->
  ?decisions:Oracle.Decision_cache.t ->
  ?budget:Imprecise_resilience.Budget.t ->
  unit ->
  config

type error =
  | Root_mismatch of string * string
      (** the two documents' root tags differ — schemas are not aligned *)
  | Mixed_content of string
      (** an element mixes non-whitespace text with element children *)
  | Too_large of int  (** more possibilities than [max_possibilities] *)
  | Oracle_conflict of string  (** contradictory absolute rules *)
  | Infeasible of string
      (** forced matches contradict sibling-distinctness *)
  | Budget_exceeded of string
      (** the configured {!Imprecise_resilience.Budget} tripped (deadline,
          world pool, or explicit cancellation — the string names which) *)
  | No_sources  (** a fold was given an empty source list *)

val pp_error : Format.formatter -> error -> unit

(** Integration metadata: how hard the Oracle had to think. The same
    counts also feed the global {!Imprecise_obs.Obs.Metrics} registry
    (under [integrate.*]), where they accumulate across runs; the trace
    record is per-run. *)
type trace = {
  mutable unsure_pairs : int;  (** pairs with no absolute decision *)
  mutable same_pairs : int;  (** pairs forced [Same] *)
  mutable cluster_count : int;
  mutable largest_enumeration : int;  (** matchings in the biggest cluster *)
  mutable pairs_generated : int;
      (** every pair of the full candidate grids ([n_left * n_right]
          summed), whether or not it was visited *)
  mutable pairs_compared : int;
      (** grid cells actually evaluated, including tag mismatches that
          never reached the Oracle. Equal to [pairs_generated] unless a
          [blocker] index skipped cells. *)
  mutable pairs_blocked : int;
      (** pairs the [blocker] index skipped without evaluation. Invariant:
          [pairs_generated = pairs_compared + pairs_blocked]. *)
}

(** Exact size measures computed without materialising: [nodes] mirrors
    {!Pxml.node_count} of the would-be result, [worlds] mirrors
    {!Pxml.world_count}. *)
type summary = { nodes : float; worlds : float; trace : trace }

(** [integrate cfg left right] builds the probabilistic integration of the
    two documents. *)
val integrate : config -> Xml.Tree.t -> Xml.Tree.t -> (Pxml.Pxml.doc, error) result

(** [integrate_traced cfg left right] also reports the {!trace}. *)
val integrate_traced :
  config -> Xml.Tree.t -> Xml.Tree.t -> (Pxml.Pxml.doc * trace, error) result

(** [stats cfg left right] is the analytic mirror of {!integrate}: for any
    inputs on which both succeed,
    [stats.nodes = float (Pxml.node_count doc)] and
    [stats.worlds = Pxml.world_count doc] exactly. [stats] succeeds on
    inputs far beyond [max_possibilities]. *)
val stats : config -> Xml.Tree.t -> Xml.Tree.t -> (summary, error) result

(** [integrate_incremental cfg doc source] folds a further source into an
    already-probabilistic document — the dataspace story: sources arrive
    over time, and each is integrated against the current uncertain state.

    {b Semantics.} The result has the world distribution of integrating
    [source] with every possible world of [doc] and mixing the results by
    world probability (then {!Pxml.Compact.compact}). It is computed
    without enumerating [doc]'s worlds, in one pass over the document:

    - at each element, a probability node is {e touched} when one of its
      possibilities holds a child that could pair with a child of
      [source]: same tag, a candidate of the [blocker], not [Different]
      under the Oracle for some local world of the child — or a child
      under a tag the DTD caps at one occurrence that [source] also has;
    - untouched probability nodes are carried over by pointer, and
      [source] children no child can reach stay certain;
    - touched probability nodes are grouped with the [source] children
      they reach, and each group's choice combinations are enumerated
      jointly and merged by the two-source engine into one mixture
      probability node. A child whose Oracle verdicts are the same in all
      its local worlds stays one probabilistic vertex, and a matched pair
      recurses into it; a child whose verdicts differ is split into its
      local worlds. An element with text content, with attributes that
      conflict with [source]'s, or facing text in [source] is merged per
      local world.

    {b Sibling order} is not that of the per-world reference: carried-over
    content keeps its place, so siblings may come out permuted. Two folds
    are equal when their world distributions are equal after sorting each
    element's children. A DTD-capped tag occurs at most once per element,
    so the order lost is that among general siblings; DTD cardinalities
    are order-free, so every world validates exactly as before. With a
    [Sorted_neighbourhood] blocker, whose window depends on the whole
    pool, equality holds as far as the blocker is recall-safe (its
    contract, {!Blocking}).

    {b Limits.} Each group's joint enumeration, each child's local worlds
    and each mixture are capped by [max_possibilities] ([Too_large]); the
    prior world count itself is not limited. The [budget] is ticked once
    per grid cell, per enumerated local world and per touched
    combination. *)
val integrate_incremental :
  config -> Pxml.Pxml.doc -> Xml.Tree.t -> (Pxml.Pxml.doc, error) result
