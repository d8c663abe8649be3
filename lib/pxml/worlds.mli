(** Possible-world semantics.

    A possible world of a probabilistic document is obtained by picking one
    possibility at every probability node, independently; its probability is
    the product of the picked possibilities' probabilities. Worlds are plain
    XML forests (usually a single root element).

    Enumeration is the {e reference semantics}: every compact algorithm in
    this repository (compaction, querying, feedback, integration counting)
    is property-tested against it. It is exponential by nature — use
    {!Pxml.world_count} before calling anything here on a large document. *)

type world = float * Imprecise_xml.Tree.t list

(** [enumerate d] lazily produces every choice combination with its
    probability. Worlds that happen to contain the same information are
    {e not} merged. Zero-probability possibilities are skipped up front —
    they carry no mass, so expanding them is pure waste ({!Pxml.world_count}
    still counts them, being a count of combinations, not of reachable
    worlds). Suffix products are memoized, so sibling probability nodes are
    each expanded once rather than once per prefix world.

    [?budget] is ticked once per produced world
    ({!Imprecise_resilience.Budget.tick}), so forcing the sequence raises
    [Budget.Exceeded] promptly when a deadline passes or the world pool
    runs dry — cooperative cancellation for consumers that would otherwise
    walk an exponential space to the end. *)
val enumerate : ?budget:Imprecise_resilience.Budget.t -> Pxml.doc -> world Seq.t

(** [enumerate_node n] enumerates worlds of a single probabilistic node. *)
val enumerate_node : Pxml.node -> (float * Imprecise_xml.Tree.t) Seq.t

(** [merged d] is the distribution of distinct worlds: worlds whose
    canonical XML ({!Imprecise_xml.Tree.canonical}, each root tree on its
    own) is equal are merged, summing their probabilities. Each world is
    returned in canonical form; the list is sorted by decreasing
    probability, ties by {!Imprecise_xml.Tree.compare_raw} on the forests.

    It does not enumerate. One bottom-up pass gives every element and
    every probability node its distinct local worlds, merging equal ones
    where they arise; elements are interned by canonical form and work on
    an equal subtree ({!Pxml.Table}) is done once. The cost is bounded by the
    number of distinct local worlds (at the root, the distinct worlds
    returned), not by the number of choice combinations times the
    document's size. A world that no merge touches has exactly the
    probability {!enumerate} gives it. *)
val merged : Pxml.doc -> world list

(** [distinct_count d] is the number of distinct (canonical) worlds. *)
val distinct_count : Pxml.doc -> int

(** [total_probability d] sums the probability of all worlds — 1 within
    tolerance for a valid document. *)
val total_probability : Pxml.doc -> float

(** {1 k-best worlds}

    The most likely interpretations of a document, without enumerating the
    world space: a hierarchical k-best combination — at every probability
    node the choices' best lists are merged by probability, across an
    element's independent probability nodes the lists are combined
    lazily product-wise, keeping only the top [k] at each step. Cost is
    polynomial in [k] and the document size, independent of the number of
    worlds. *)

(** [most_likely ~k d] is the up-to-[k] highest-probability choice
    combinations, as [(probability, forest)], sorted by decreasing
    probability. Equal worlds arising from different combinations are
    {e not} merged (mirroring {!enumerate}); apply canonicalisation if
    needed. *)
val most_likely : k:int -> Pxml.doc -> world list

(** {1 Monte-Carlo sampling}

    For documents whose world space is too large to enumerate, worlds can
    be sampled: at each probability node one possibility is drawn according
    to its probability, independently — which is exactly the model's
    semantics, so a sample is an unbiased draw from the world
    distribution. *)

(** [sample rng d] draws one world and returns it with the advanced
    generator state. The returned float is the world's probability (the
    product of the drawn possibilities). *)
val sample :
  Imprecise_prng.Prng.t ->
  Pxml.doc ->
  (float * Imprecise_xml.Tree.t list) * Imprecise_prng.Prng.t

(** [sample_many ~n rng d] draws [n] independent worlds. *)
val sample_many :
  n:int ->
  Imprecise_prng.Prng.t ->
  Pxml.doc ->
  (float * Imprecise_xml.Tree.t list) list * Imprecise_prng.Prng.t
