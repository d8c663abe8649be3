(** The store's on-disk commit record.

    A saved directory carries a [MANIFEST] file naming every live document
    with its kind, byte length, CRC-32 checksum, and the file that holds
    its bytes. Each save writes its documents under fresh
    generation-stamped filenames ([<name>.g<N>.ipx]) and the manifest is
    written last (tmp + fsync + rename), so its rename is the {e commit
    point} of a save: a load that finds it trusts exactly the files it
    lists, a crash before it leaves the previous manifest — and therefore
    the previous store contents, whose files were never touched — in
    force.

    The format is line-based and self-checking:
    {v
    imprecise-manifest 3
    <name> certain|probabilistic <length> <crc32-hex> <file>
    ...
    end <entry-count> <crc32-hex of the entry block>
    v}
    The checksums are {!Imprecise_pxml.Bincodec.crc32}. {!to_string}
    always writes the version-3 header. Version-2 manifests (same entries,
    written by earlier versions for stores of XML files) and version-1
    manifests (four fields, documents at [<name>.xml]) are still readable.
    A torn write cannot pass for a complete manifest: truncation loses the
    [end] line or breaks its count/checksum, and {!of_string} rejects
    it. *)

type kind = Certain | Probabilistic

type entry = { name : string; kind : kind; length : int; crc : int32; file : string }

type t = entry list

(** ["MANIFEST"] — reserved; never a document file (those end in [.ipx]
    or [.xml]). *)
val filename : string

val to_string : t -> string

(** Parses and verifies header, entry syntax, entry count and block
    checksum. Any deviation — including duplicate names or files — is an
    error. *)
val of_string : string -> (t, string) result

val find : t -> string -> entry option

val pp_kind : Format.formatter -> kind -> unit
