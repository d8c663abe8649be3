(** Memoized Oracle decisions.

    Integration decides the same subtree pairs over and over: re-running
    with revised rules, folding a third source over an integration whose
    elements were already compared, or simply meeting the same repeated
    subtrees in one verdict grid. This cache keys the Oracle's verdict by
    the {e pair of subtrees themselves} (structural equality), so any
    repeat is answered without consulting the rules again.

    A {!key} is a subtree paired with its full structural hash. Building
    one traverses the subtree once; the integration engine builds them once
    per verdict-grid row and column, before the grid fans out to its
    domains. Two keys are equal when their hashes agree and their trees
    are equal {e as written} ({!Imprecise_xml.Tree.compare_raw}: attribute
    order and whitespace text count, no canonical form), so exactly the
    pairs of raw-equal subtrees share a verdict. A probe with the keys a
    verdict was stored under is a hash combine and two pointer checks,
    O(1) in the size of the subtrees; a probe with fresh deep-equal copies
    also compares them once.

    Soundness contract: the Oracle's rules and default must be pure
    functions of the two subtrees. Rules that close over external state
    would make a cached verdict stale; nothing in this module can detect
    that. Callers who revise the rule set must use a fresh cache (the
    engine creates one per {!val:Imprecise.integrate_many} call).

    The cache is a mutex-guarded LRU, safe to consult from the parallel
    domains of [Matching.graph]. Hits, misses and evictions
    are counted under [oracle.cache.hit] / [oracle.cache.miss] /
    [oracle.cache.evict]; note that a cache hit skips [Oracle.decide],
    so [oracle.decisions] and per-rule fired counters only grow on
    misses. *)

module Xml = Imprecise_xml

type t

(** A subtree with its structural hash. *)
type key

(** [key tree] hashes [tree]: one traversal. Trees equal as written give
    keys that compare equal. *)
val key : Xml.Tree.t -> key

(** The structural hash a key was built with. *)
val key_hash : key -> int

(** [create ?capacity ()] makes an empty cache evicting least-recently
    used entries beyond [capacity] (default 4096) pairs. Raises
    [Invalid_argument] if [capacity <= 0]. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

val length : t -> int

val clear : t -> unit

(** [find t a b] is the cached verdict for the pair, if present (counts a
    hit or miss either way). *)
val find : t -> key -> key -> Oracle.verdict option

(** [add t a b v] records a verdict (overwriting any previous one). *)
val add : t -> key -> key -> Oracle.verdict -> unit

(** [decide t oracle a b] is [Oracle.decide] on the keys' subtrees,
    memoized through the cache. [Oracle.Conflict] propagates and is never
    cached. The internal lock is not held during the Oracle call, so
    concurrent misses on the same pair may both run the rules — harmless
    for pure rules, see the soundness contract above. *)
val decide : t -> Oracle.t -> key -> key -> Oracle.verdict
