(** The probabilistic XML data model of the paper (§II).

    A probabilistic document is a strictly layered tree over three node
    kinds:

    - {b probability nodes} (▽, here {!dist}) indicate a choice; their
      children are possibility nodes;
    - {b possibility nodes} (○, here {!choice}) carry the probability that
      their subtree exists; sibling possibilities are mutually exclusive and
      their probabilities sum to 1;
    - {b regular XML nodes} (□, here {!node}) are elements and text; the
      content of an element is a sequence of probability nodes.

    Distinct probability nodes choose {e independently}; this is what makes
    the representation compact — independent uncertainty multiplies the
    number of possible worlds but only adds representation nodes.

    The root of a document is a probability node. A document in which every
    probability node has exactly one possibility of probability 1 is
    {e certain}.

    A {!dist} carries a shape hash that is filled the first time it is
    needed, so two equal values may differ in that field. Compare Pxml
    values with {!equal}, {!equal_node} or {!Table}, and hash them with
    {!hash_node}; never with polymorphic [=], [compare] or
    [Hashtbl.hash]. *)

module Xml = Imprecise_xml

type node =
  | Elem of Xml.Tree.name * (Xml.Tree.name * string) list * dist list
  | Text of string

(** Built only by {!dist}, {!dist_unchecked} and {!certain}. [shape] is
    the cached shape hash, [-1] until first used; read it through
    {!hash_node}. *)
and dist = private { choices : choice list; mutable shape : int }

and choice = { prob : float; nodes : node list }

type doc = dist

(** Probability-sum tolerance used by {!validate} and the constructors. *)
val epsilon : float

(** {1 Construction} *)

exception Invalid of string

(** [dist choices] builds a probability node. Raises {!Invalid} if [choices]
    is empty, a probability is outside [0, 1+ε], or the sum differs from 1
    by more than {!epsilon}. *)
val dist : choice list -> dist

(** [dist_unchecked choices] is {!dist} without the checks, for passes
    that derive probabilities from a valid document (and must not fail
    on its rounding) and for building invalid documents on purpose. *)
val dist_unchecked : choice list -> dist

val choice : prob:float -> node list -> choice

(** [certain nodes] is a probability node with the single possibility
    [nodes] at probability 1. *)
val certain : node list -> dist

val elem : ?attrs:(Xml.Tree.name * string) list -> Xml.Tree.name -> dist list -> node

val text : string -> node

(** {1 Conversion from/to certain XML} *)

(** [of_tree t] embeds a plain XML tree: each element's children become a
    single certain probability node. *)
val of_tree : Xml.Tree.t -> node

(** [doc_of_tree t] is [certain [of_tree t]]. *)
val doc_of_tree : Xml.Tree.t -> doc

(** [to_tree_exn d] extracts the unique world of a certain document. Raises
    {!Invalid} if [d] is not certain. *)
val to_tree_exn : doc -> Xml.Tree.t list

val is_certain : doc -> bool

(** [is_certain_choice_list cs] holds when [cs] is one possibility of
    probability 1 (within [1e-6]): a probability node that chooses
    nothing. *)
val is_certain_choice_list : choice list -> bool

(** {1 Validation} *)

(** [validate d] checks the probability invariants everywhere: non-empty
    choice lists, probabilities within bounds, sums within {!epsilon} of
    1. *)
val validate : doc -> (unit, string) result

(** {1 Statistics} *)

type stats = {
  elements : int;
  texts : int;
  prob_nodes : int;
  poss_nodes : int;
}

val stats : doc -> stats

(** [node_count d] is the total number of representation nodes — elements,
    texts, probability and possibility nodes. This is the measure the paper
    reports in Table I and Figure 5. *)
val node_count : doc -> int

(** [world_count d] is the number of choice combinations, i.e. the size of
    the possible-world space before merging worlds that happen to be equal.
    Returns a float because the count grows multiplicatively. *)
val world_count : doc -> float

(** [world_count_int d] is [world_count] as an exact int; [None] on
    overflow. *)
val world_count_int : doc -> int option

(** {1 Structural equality} *)

(** [equal_node a b] is structural equality of probabilistic nodes, with
    probabilities compared up to {!epsilon}. *)
val equal_node : node -> node -> bool

val equal : doc -> doc -> bool

(** {1 Node identity} *)

(** [hash_node n] is [n]'s shape hash: it covers tags, attributes, text
    and nesting, not probabilities, so nodes that {!equal_node} equates
    hash alike. Each dist caches its own on first use, so the cost of
    hashing a node is its own tag, attributes and content list. *)
val hash_node : node -> int

(** [mix h x] folds [x] into the running hash [h] (FNV-style; spread the
    result with [Hashtbl.hash] before using its low bits). *)
val mix : int -> int -> int

(** Tables keyed by structure. The hash is {!hash_node}; two keys are
    equal when they are structurally equal with every probability equal
    bit for bit, and at once when they are the same object. Work memoised
    per key runs once per distinct subtree, not once per occurrence or per
    separately allocated copy, and gives bit-identical results for every
    node it stands for. *)
module Table : sig
  include Hashtbl.S with type key = node

  (** [memo f] is [f] computed once per distinct node, in a table that
      lives as long as the returned function. *)
  val memo : (node -> 'a) -> node -> 'a
end

val pp : Format.formatter -> doc -> unit

val pp_node : Format.formatter -> node -> unit
