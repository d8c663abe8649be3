(** LRU cache for ranked query answers.

    Keys are composite strings built by {!key} from [(collection, document
    generation, evaluation variant, query text)]. Invalidation is by
    {e generation}, not by deletion: each [Store.put] stamps the document
    with a fresh, process-unique generation, so entries computed against a
    superseded document state simply never match again and age out of the
    LRU. Hits, misses and evictions are counted in the global metrics
    registry as [pquery.cache.hit] / [.miss] / [.evict].

    Not domain-safe: confine a cache (including {!global}) to one domain. *)

type t

(** [create ?capacity ()] — [capacity] (default 256) must be positive;
    raises [Invalid_argument] otherwise. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Entries currently held. *)
val length : t -> int

(** [find t key] is the cached answer, marking it most recently used.
    Counts a hit or a miss. *)
val find : t -> string -> Answer.t list option

(** [add t key answers] inserts or replaces, evicting the least recently
    used entry when full. *)
val add : t -> string -> Answer.t list -> unit

(** [key ~collection ~generation ~variant ~query] builds the composite
    cache key. [variant] encodes everything besides the document and query
    that determines the answer (strategy, top-k). *)
val key : collection:string -> generation:int -> variant:string -> query:string -> string

(** The process-wide query-answer cache used by [Pquery.rank ~cache]. *)
val global : t
