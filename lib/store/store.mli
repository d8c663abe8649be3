(** A miniature XML document store — the MonetDB/XQuery stand-in.

    IMPrECISE in the paper is an XQuery module layered on an XML DBMS whose
    only obligations are to hold XML documents and evaluate queries over
    them (Fig. 4). This store provides the document-management half: named
    collections of certain and probabilistic documents, persisted as
    compact binary frames ({!Imprecise_pxml.Bincodec}). The query half is
    {!Imprecise_xpath} / {!Imprecise_pquery}, which operate on the values
    this store returns.

    Persistence is crash-safe: saves stage each document through a
    tmp + fsync + rename protocol onto fresh generation-stamped filenames
    and commit by renaming a checksummed [MANIFEST]; loads salvage — they
    verify every file and report, rather than refuse, whatever is damaged.
    See [doc/store.md] for the on-disk layout and the exact guarantees. *)

module Tree = Imprecise_xml.Tree
module Pxml = Imprecise_pxml.Pxml

(** The IO layer the store runs on; swap in {!Io.faulty} to test crashes. *)
module Io = Io

(** The on-disk commit record written by {!save}. *)
module Manifest = Manifest

type doc = Certain of Tree.t | Probabilistic of Pxml.doc

type t

val create : unit -> t

(** [put t name doc] adds or replaces. Names must be non-empty and use only
    [A-Za-z0-9._-]; raises [Invalid_argument] otherwise. O(1) per call.
    Each put stamps the document with a fresh generation (see
    {!generation}), which is how query caches learn the old answers are
    stale. *)
val put : t -> string -> doc -> unit

val get : t -> string -> doc option

val get_certain : t -> string -> Tree.t option

val get_probabilistic : t -> string -> Pxml.doc option

val remove : t -> string -> unit

(** [generation t name] is the document's current generation: an integer
    drawn from a process-global counter by every {!put}, so a
    [(name, generation)] pair uniquely identifies one document state — even
    across distinct stores sharing a name. [None] when the document is
    absent. Cache keys built on it (see {!Imprecise_pquery.Cache}) are
    invalidated simply by the generation moving on. *)
val generation : t -> string -> int option

val mem : t -> string -> bool

(** Names in insertion order. *)
val names : t -> string list

val size : t -> int

(** {1 Persistence}

    One file per document, [<name>.g<N>.ipx] where [N] is the generation
    of the save that wrote it, plus a [MANIFEST], in a directory. Each file
    is one {!Imprecise_pxml.Bincodec} frame: length-prefixed,
    CRC-32-checksummed, with deep-equal subtrees stored once.

    Directories written by earlier versions still load: loads detect the
    format of each file from its first bytes, so text XML documents
    ([<name>.g<N>.xml], or [<name>.xml] without a manifest) and version
    1–3 manifests read as before, and the next save rewrites their
    documents as [.ipx]. *)

(** [save] is atomic per document {e and} per collection: each file is
    written to a fresh generation-stamped name via tmp + fsync + rename,
    and the manifest — listing every live document with its byte length,
    CRC-32 and file — is committed last by the same protocol, with a
    directory fsync on either side so the commit is durable. Committed
    files are never renamed or overwritten: a save that fails at {e any}
    point (crash, power loss, full disk) leaves every file of the previous
    commit intact and the previous manifest in force. Only after the
    commit are superseded files deleted — the previous manifest's files,
    older-generation documents (legacy [.xml] ones included), and leftover
    staging files — so removed documents stay removed. [<base>.g<N>.ipx],
    [<base>.g<N>.xml], [*.ipx.tmp], [*.xml.tmp] and [MANIFEST] names are
    owned by the store; foreign files are never deleted.

    [retry] re-runs a failed save under the given
    {!Imprecise_resilience.Retry.policy} (default: one attempt, as
    before), classifying failures with {!Io.classify_error} — transient
    faults (injected crash/torn write, full disk, EINTR-family errors)
    are retried with exponential backoff, permanent ones (bad directory,
    permissions) fail immediately. Retrying is safe because every attempt
    stages under a fresh generation: a half-staged failed attempt is
    invisible to the next one and swept by its cleanup. [sleep] overrides
    the backoff sleep (seconds; tests pass [ignore]). Counters
    [resilience.retries] / [resilience.retry_giveups] record the
    outcome. *)
val save :
  ?io:Io.t ->
  ?retry:Imprecise_resilience.Retry.policy ->
  ?sleep:(float -> unit) ->
  t ->
  dir:string ->
  (unit, string) result

(** How {!load} treats damage:
    - [Salvage] (default): recover every intact document and record what
      is wrong with the rest — unparseable, checksum-mismatched, stray,
      or left over as [.tmp] — in the report;
    - [Strict]: all-or-nothing — the first problem aborts the load with
      [Error]. *)
type load_mode = Strict | Salvage

(** Per-document result of a load. *)
type outcome =
  | Recovered  (** verified (against the manifest when present) and loaded *)
  | Quarantined of string
      (** damaged or stray; the reason why. Renamed to [*.corrupt] only
          when the load was called with [~quarantine:true] — bytes are
          kept, never silently deleted. *)
  | Missing  (** listed in the manifest but no file on disk *)

type manifest_status =
  [ `Ok  (** present and verified *)
  | `Absent  (** legacy directory: files are taken at face value *)
  | `Corrupt of string  (** unreadable; files taken at face value *)
  ]

type report = { manifest : manifest_status; docs : (string * outcome) list }

(** [true] iff every document came back [Recovered]. *)
val recovered_all : report -> bool

val pp_outcome : Format.formatter -> outcome -> unit

val pp_report : Format.formatter -> report -> unit

(** [load dir] reads a saved directory back. With a manifest, exactly the
    listed documents are candidates and each is verified against its length
    and checksum — a document whose bytes do not match its manifest entry
    is never returned. Without one, every [<valid-name>.ipx] or [.xml]
    that parses is accepted (legacy layout; a [.g<N>] generation tag is
    stripped from the name). [Error] is reserved for the directory being unreadable — or,
    under [Strict], for any damage at all.

    By default a load only reads: it works on a read-only directory and
    cannot disturb a save racing it. With [~quarantine:true] (used by
    [imprecise doctor --repair]) everything reported [Quarantined] — plus
    a corrupt manifest and leftover [.tmp] staging files — is renamed to
    [<file>.corrupt] so that a subsequent load finds a clean directory.

    [retry]/[sleep] as in {!save}: transient IO failures re-run the whole
    load (each attempt builds a fresh in-memory store, so attempts cannot
    contaminate each other); strict-mode damage is permanent and is never
    retried. *)
val load :
  ?io:Io.t ->
  ?retry:Imprecise_resilience.Retry.policy ->
  ?sleep:(float -> unit) ->
  ?mode:load_mode ->
  ?quarantine:bool ->
  string ->
  (t * report, string) result
