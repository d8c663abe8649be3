(** Plain (certain) XML trees.

    This is the data substrate everything else builds on: documents loaded
    from the sources being integrated, possible worlds extracted from a
    probabilistic document, and query results. The representation is
    deliberately small: elements with attributes, and text. Comments,
    processing instructions and CDATA sections are resolved by the parser
    and do not appear in trees. *)

type name = string

type attribute = name * string

type t =
  | Element of name * attribute list * t list
  | Text of string

(** {1 Construction} *)

val element : ?attrs:attribute list -> name -> t list -> t

val text : string -> t

(** [leaf name value] is [element name [text value]] — the common shape for
    data fields such as [<title>Jaws</title>]. *)
val leaf : ?attrs:attribute list -> name -> string -> t

(** {1 Accessors} *)

val is_element : t -> bool

val is_text : t -> bool

(** [name t] is the tag of an element, [None] for text. *)
val name : t -> name option

(** [tag t] is the tag of an element; raises [Invalid_argument] on text. *)
val tag : t -> name

val attributes : t -> attribute list

val attribute : t -> name -> string option

val children : t -> t list

val child_elements : t -> t list

(** [find_child t n] is the first child element of [t] named [n]. *)
val find_child : t -> name -> t option

val find_children : t -> name -> t list

(** [text_content t] concatenates all descendant text, in document order.
    This is the XPath 1.0 string-value of a node. *)
val text_content : t -> string

(** [field t n] is the whitespace-normalised string value of the first child
    element named [n], if present. *)
val field : t -> name -> string option

(** {1 Canonical form and comparison} *)

(** [normalize_space s] collapses runs of XML whitespace to single spaces and
    trims both ends, as XPath's [normalize-space]. *)
val normalize_space : string -> string

(** [canonical t] sorts attributes by name, merges adjacent text nodes, drops
    text nodes that are entirely whitespace between elements, and normalises
    surviving text. Two trees representing the same information have equal
    canonical forms. *)
val canonical : t -> t

(** [deep_equal a b] compares canonical forms structurally. This implements
    the paper's generic rule "two deep-equal elements refer to the same
    real-world object". *)
val deep_equal : t -> t -> bool

val compare : t -> t -> int

val equal : t -> t -> bool

(** [compare_raw a b] orders trees as written, with no canonical form:
    attribute order, whitespace text and adjacent text nodes all count.
    Physically equal subtrees compare equal without being traversed. *)
val compare_raw : t -> t -> int

(** {1 Traversal and statistics} *)

(** [fold f acc t] folds [f] over every node of [t] in document order. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val iter : (t -> unit) -> t -> unit

(** [node_count t] is the number of nodes (elements and text) in [t]. *)
val node_count : t -> int

val depth : t -> int

val pp : Format.formatter -> t -> unit
