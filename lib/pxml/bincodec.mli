(** Compact binary codec for probabilistic documents — the v3 store format.

    A binary document is one self-describing {e frame}:

    {v
      "IPXB"              4-byte magic
      version             1 byte      (currently 1)
      kind                1 byte      (0 = certain tree, 1 = probabilistic doc)
      payload length      LEB128 varint
      payload CRC-32      4 bytes, little-endian (IEEE polynomial)
      payload             <length> bytes
    v}

    The payload encodes the document with {e shared subtrees}: every
    sharable production (string, XML node, probability node) is prefixed by
    a varint [k] — [k = 0] introduces a definition (body follows, appended
    post-order to that production's table), [k > 0] is a back-reference to
    definition [k-1]. Each encode hash-conses the document in tables of its
    own (a string by its value, a pxml node through {!Pxml.Table}, any
    other node by its tag or probabilities (by their bits), attributes and
    children's definitions), so equal strings and deep-equal subtrees are
    written once. Encoding touches no global
    state and keeps nothing after it returns. Decoding rebuilds the same
    sharing physically. Probabilities travel as their IEEE-754 bits
    (little-endian), so the round-trip is bit-exact — no text formatting is
    involved.

    Decoding verifies magic, version, declared length, and CRC-32 before
    building anything, bounds every count and length by the payload bytes
    left, and re-validates the structural invariants (probability sums) as
    the XML codec does; any mismatch is an [Error], never an exception, so
    the store can quarantine a torn or corrupted file instead of
    crashing. *)

module Tree = Imprecise_xml.Tree

type payload = Certain of Tree.t | Probabilistic of Pxml.doc

(** [tree_to_string t] is the framed binary encoding of a certain tree:
    one pass over [t]. *)
val tree_to_string : Tree.t -> string

(** [doc_to_string d] is the framed binary encoding of a probabilistic
    document: one pass over [d]. *)
val doc_to_string : Pxml.doc -> string

(** [of_string s] decodes a frame produced by {!tree_to_string} or
    {!doc_to_string} (or by any earlier encoder of the same frame
    layout). Errors (bad magic, unsupported version, length mismatch,
    checksum failure, truncation, counts or lengths beyond the payload,
    malformed payload) are returned, never raised. *)
val of_string : string -> (payload, string) result

(** [is_binary s] is [true] iff [s] starts with the binary magic — use to
    dispatch between the XML and binary parsers. *)
val is_binary : string -> bool

(** CRC-32 (IEEE, the zlib polynomial) of a string: the frame's payload
    checksum, and the checksum of every store manifest entry. *)
val crc32 : string -> int32
