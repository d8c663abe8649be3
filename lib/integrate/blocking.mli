(** Pluggable entity-resolution blocking (doc/integrate.md has the
    catalogue).

    A blocker runs in front of {!Matching.graph}: from the two
    child arrays it compiles a {e plan} — per left child, the ascending list
    of right children worth comparing — and only those cells of the
    candidate grid reach the Oracle. The pairs a blocker skips are exactly
    the pairs its strategy deems implausible; soundness ("a skipped pair
    would have been [Different] anyway") is relative to the Oracle in use
    and is the caller's contract, certified for the shipped presets by
    [test/test_blocking.ml] (`dune build @block-stress`).

    Every blocker is {e recall-safe by construction} in one respect:
    children whose key function returns [None] (or a key that normalises to
    the empty string) are never blocked — they pair with everything, on
    both sides. *)

(** Extracts the blocking key of one child element; [None] (and keys that
    normalise to [""]) mean "unknown — compare against everything". Must be
    pure: plans are built once and read from many domains. *)
type key_fn = Imprecise_xml.Tree.t -> string option

type spec =
  | All_pairs  (** identity baseline: every pair reaches the Oracle *)
  | Key of { key : key_fn }
      (** exact match on {!Imprecise_oracle.Similarity.normalize_key}ed
          keys: a pair survives iff the keys are equal (or either is
          missing) *)
  | Qgram of { key : key_fn; q : int; threshold : float }
      (** a pair survives iff the keys' q-gram Jaccard similarity is
          [>= threshold] (or either key is missing), found through an
          inverted {!Imprecise_oracle.Similarity.Qgram_index}. Equal keys
          have similarity 1, so any [threshold <= 1] keeps them. *)
  | Sorted_neighbourhood of { key : key_fn; window : int }
      (** both sides' keyed children are sorted together by key; a pair
          survives iff the two records fall within [window] positions of
          each other in that order, {e or} share the exact key (duplicate
          runs longer than the window never lose their pairs), or either
          key is missing. *)

(** CLI names: ["all"], ["key"], ["qgram"], ["sortedneighbourhood"]. These
    are also the [integrate.blocked.<name>] counter suffixes. *)
val name : spec -> string

(** Human-readable form with the parameters, for reports and benches. *)
val describe : spec -> string

(** Key on the element's whole normalised text content. *)
val text_key : key_fn

(** [field_key f] keys on the normalised text of child field [f] (as
    {!Imprecise_xml.Tree.field}). *)
val field_key : string -> key_fn

(** Smart constructors; [field] picks {!field_key}, default {!text_key}.
    Defaults: [q = 2], [threshold = 0.3], [window = 7]. They raise
    [Invalid_argument] on [q < 1], [threshold] outside [0, 1] (a threshold
    above 1 would block even identical keys), or [window < 1]. *)

val key : ?field:string -> unit -> spec

val qgram : ?field:string -> ?q:int -> ?threshold:float -> unit -> spec

val sorted_neighbourhood : ?field:string -> ?window:int -> unit -> spec

(** [of_string name] parses a CLI blocker name
    ([key|qgram|sortedneighbourhood|all], plus a few aliases), applying the
    optional parameters to the blockers that use them. *)
val of_string :
  ?field:string ->
  ?q:int ->
  ?threshold:float ->
  ?window:int ->
  string ->
  (spec, string) result

(** A compiled plan for one candidate grid. Built eagerly — key extraction,
    index construction and all candidate rows happen inside {!plan} — and
    immutable afterwards, so {!candidates} may be called concurrently from
    every band domain of the parallel grid. *)
type plan

(** [plan ?tick spec ~left ~right] compiles [spec] against one child-array
    pair. [tick] (default: no-op) is called once per key extracted and once
    per index posting touched — pass the integration budget's tick so plan
    construction counts against the deadline / work pool. *)
val plan :
  ?tick:(unit -> unit) ->
  spec ->
  left:Imprecise_xml.Tree.t array ->
  right:Imprecise_xml.Tree.t array ->
  plan

(** [candidates p] is [None] for the identity plan (full grid), or
    [Some f] where [f i] is the ascending, duplicate-free list of right
    indices left child [i] may pair with. Ascending order matters: it
    preserves the row-major edge order, which keeps any [jobs] value
    bit-identical to sequential evaluation. *)
val candidates : plan -> (int -> int list) option
