(** Schema knowledge in the form of child-element cardinalities.

    The paper uses a DTD to rule out impossible worlds during integration —
    e.g. "a person has at most one phone number" rejects the world in which
    the two address-book Johns are one person with two phones (Fig. 2).
    Only the cardinality part of a DTD matters for that purpose, so this
    module models exactly that: for a parent element name and a child
    element name, how many occurrences a world may contain. *)

type occurs =
  | Optional  (** [?] — zero or one *)
  | One  (** exactly one *)
  | Many  (** [+] — one or more *)
  | Any  (** [*] — zero or more (the default for undeclared pairs) *)

type t

val empty : t

(** [declare t ~parent ~child occurs] adds (or replaces) a cardinality
    declaration. *)
val declare : t -> parent:Tree.name -> child:Tree.name -> occurs -> t

val occurs : t -> parent:Tree.name -> child:Tree.name -> occurs

(** [max_one t ~parent ~child] is true when at most one [child] may occur
    under [parent] ([Optional] or [One]). *)
val max_one : t -> parent:Tree.name -> child:Tree.name -> bool

type violation = {
  parent : Tree.name;
  child : Tree.name;
  expected : occurs;
  found : int;
}

val pp_violation : Format.formatter -> violation -> unit

(** [validate t tree] checks every element of [tree] against the declared
    cardinalities. Undeclared (parent, child) pairs are unconstrained. *)
val validate : t -> Tree.t -> (unit, violation list) result

(** [infer docs] derives cardinality knowledge from example documents: for
    every (parent, child) element-tag pair observed, if no parent instance
    in any document ever holds more than one [child], the pair is declared
    [Optional] (at most one). Pairs observed with repetition are declared
    [Any]. This is the "other semantical knowledge" route when no DTD is
    written down: the sources themselves witness which fields are
    single-valued. Sound for integration only insofar as the samples are
    representative — a field that merely {e happened} to be unique gets
    capped. *)
val infer : Tree.t list -> t

(** [of_string s] parses a compact textual form, one declaration per line:
    ["person: nm, tel?, address*"] declares [nm] as exactly-one, [tel] as
    at-most-one and [address] as any, under [person]. A trailing [+] means
    one-or-more. Blank lines and [#] comments are ignored. A parent or
    child that is not an XML name ({!Parser.is_name}), such as [nm!] or
    the [:: ?] of [garbage ::: ??], is an [Error]. *)
val of_string : string -> (t, string) result

val to_string : t -> string

(** All declarations, sorted by parent then child. *)
val declarations : t -> (Tree.name * Tree.name * occurs) list
