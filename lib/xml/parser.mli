(** A from-scratch XML 1.0 parser, sufficient for data-integration workloads.

    Supported: elements, attributes (single or double quoted), character
    data, the five predefined entities plus decimal/hex character
    references, comments, CDATA sections, processing instructions and the
    XML declaration (both skipped), and a DOCTYPE declaration (skipped,
    including an internal subset). Not supported: namespaces beyond treating
    the colon as a name character, and external entities (by design — no
    I/O, no XXE). *)

type error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** [is_name s] holds when [s] is a name as this parser reads one: a
    letter, [_], [:] or a non-ASCII byte, then any of those, digits, [-]
    and [.]. *)
val is_name : string -> bool

(** [parse_string s] parses a complete document and returns its root
    element. Leading/trailing prolog and misc content is allowed. *)
val parse_string : string -> (Tree.t, error) result

(** [parse_string_exn s] is [parse_string], raising [Failure] on error. *)
val parse_string_exn : string -> Tree.t

(** [parse_file path] reads and parses [path]. *)
val parse_file : string -> (Tree.t, error) result
