(** Pluggable filesystem operations for the store.

    Every byte the store reads or writes goes through a value of type {!t}.
    The default, {!real}, performs direct syscalls ([Unix.fsync] included);
    tests swap in {!faulty}, a shim that simulates a crash, a torn write or
    a full disk at a chosen operation, and {!observe}, a spy that reports
    each completed operation — together they let the fault-injection suite
    walk every crash point of a [save] and assert what a subsequent [load]
    can still recover. *)

type t

(** The operation classes a shim can observe or fail. *)
type op = List_dir | Read | Write | Fsync | Fsync_dir | Rename | Delete | Mkdir

(** [is_mutating op] is [true] for the operations that change the disk
    (write, fsync, fsync-dir, rename, delete, mkdir) — the ones {!faulty}
    counts. *)
val is_mutating : op -> bool

(** Raised by {!faulty} in [Crash] and [Torn] modes: the process "died" at
    this operation. *)
exception Fault of string

(** Direct syscalls. Writes go through a file descriptor and report short
    writes; [fsync] forces data to disk; [fsync_dir] fsyncs a directory fd
    so completed renames and deletes survive power loss (filesystems that
    refuse to fsync a directory are tolerated). [Unix.Unix_error] is
    translated to [Sys_error] so callers handle one exception family. *)
val real : t

(** How the failing operation misbehaves:
    - [Crash]: the operation raises {!Fault} before doing anything;
    - [Torn]: a failing write flushes only a prefix of its bytes before
      raising {!Fault} (a partial flush at power loss); non-writes crash;
    - [Enospc]: like [Torn], but raises [Sys_error] "No space left on
      device" — the error path a full disk takes. *)
type fault_mode = Crash | Torn | Enospc

(** [faulty ~mode ~fail_at base] fails the [fail_at]-th (1-based) mutating
    operation; earlier and later operations pass through to [base].
    Default mode: [Crash]. *)
val faulty : ?mode:fault_mode -> fail_at:int -> t -> t

(** [flaky ?mode ~should_fail base] fails exactly the operations for which
    [should_fail op path] is true — unlike {!faulty} it covers reads and
    directory listings, and the predicate can script transient faults
    (fail the first [n] consultations, then heal) or persistent ones.
    Drive it from a {!Imprecise_resilience.Chaos} plan:
    [flaky ~should_fail:(fun op _ -> op = Fsync && Chaos.fires plan "fsync") real].

    Mode refines {!fault_mode} for the read path: [Torn] reads return a
    silent prefix of the data {e without} raising — damage only the
    store's CRC gate can catch; [Crash]/[Enospc] reads raise like any
    other operation. *)
val flaky : ?mode:fault_mode -> should_fail:(op -> string -> bool) -> t -> t

(** [classify_error e] sorts an IO failure for retry purposes:
    {!Fault} (injected crash/torn write) and [Sys_error]s whose message
    indicates a typically-transient condition (full disk, EINTR, EAGAIN,
    EIO, EMFILE, EBUSY) are
    [Transient]; everything else — permission denied, missing directory,
    and all non-IO exceptions — is [Permanent]. This is the default
    classifier behind {!Store.save}/{!Store.load} retries. *)
val classify_error : exn -> Imprecise_resilience.Retry.error_class

(** [observe f base] calls [f op path] after each operation of [base]
    {e completes} ([path] is the destination for renames). Failed
    operations are not reported, so wrapping a {!faulty} shim records
    exactly what reached the disk before the crash. *)
val observe : (op -> string -> unit) -> t -> t

(** {1 Labelled observation}

    The store runs different kinds of operations through one {!t} —
    staging document files, committing the manifest, cleaning up
    superseded generations, quarantining damage. [op] and [path] alone
    cannot attribute a write to its purpose, so the store brackets each
    kind in {!with_tag} and tagged observers receive the ambient label. *)

(** [with_tag tag f] runs [f ()] with [tag] as the current operation
    label (dynamically scoped; restored on exit, even on exceptions). *)
val with_tag : string -> (unit -> 'a) -> 'a

(** The innermost {!with_tag} label, or ["io"] outside any. *)
val current_tag : unit -> string

(** [metered ?registry base] feeds every completed operation into
    {!Imprecise_obs.Obs.Metrics} (default: the global registry):
    [store.bytes_written], [store.bytes_read], [store.fsyncs],
    [store.renames], [store.deletes], plus per-label attribution
    [store.writes.<tag>] and [store.write_bytes.<tag>] — e.g.
    [store.writes.manifest] vs [store.writes.doc]. {!Store.save} and
    {!Store.load} meter their io themselves; wrap explicitly only for
    custom registries or direct [Io] use. *)
val metered : ?registry:Imprecise_obs.Obs.Metrics.registry -> t -> t

(** {1 Operations}

    All raise [Sys_error] on real filesystem errors. *)

val list_dir : t -> string -> string list

val read_file : t -> string -> string

val write_file : t -> string -> string -> unit

val fsync : t -> string -> unit

val fsync_dir : t -> string -> unit

val rename : t -> src:string -> dst:string -> unit

val delete : t -> string -> unit

val mkdir : t -> string -> unit

val exists : t -> string -> bool
