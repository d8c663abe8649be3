(** Telemetry for the whole stack.

    Its only dependency beyond the stdlib is [unix] (the default clock), so
    any layer can link it:

    - {!Metrics}: named counters and histograms in a registry, with
      snapshot/reset and text/JSON rendering. Counters are always on —
      an increment is one atomic fetch-and-add, so the hot paths simply
      count unconditionally, and they count {e exactly} even from
      parallel domains. Histograms carry streaming p50/p90/p99 via
      {!Quantile}.
    - {!Trace}: nested timing spans with a pluggable sink, and the op
      bracket {!Trace.op} every library operation runs in. The default is
      {e no sink}: [with_span name f] is then a single load-and-branch
      around [f ()], so instrumented code costs ~nothing when tracing is
      off. Span stacks are domain-local. Completed trees export to Chrome
      trace-event JSON ({!Trace.to_chrome}).
    - {!Event}: the structured event stream — named, timestamped events
      in a lock-free bounded ring, optionally mirrored to a JSONL sink.
      Off by default; emission is then one atomic load. Every finished op
      emits one.
    - {!Clock}: the one clock all of the above read.
    - {!Json}: the minimal JSON everything renders to, including a parser
      so snapshot and event files can be validated without external
      dependencies.

    See doc/observability.md for the metric-name and event-name
    catalogues and the span hierarchy the rest of the repo emits. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (** [to_string ?indent v] renders [v]; [indent] pretty-prints with that
      many spaces per level. NaN renders as [null], infinities as
      [±1e999] (out-of-range numerals, as other JSON emitters do). *)
  val to_string : ?indent:int -> t -> string

  (** [parse s] reads back what {!to_string} writes. [\uXXXX] escapes
      decode to UTF-8, surrogate pairs included; a lone or misordered
      surrogate half is a parse error naming the offending escape. *)
  val parse : string -> (t, string) result

  (** [member key v] is the field [key] of an [Obj], if both exist. *)
  val member : string -> t -> t option
end

module Clock : sig
  (** The process clock, in seconds: span bounds, op durations, {!Event}
      timestamps and [Resilience.Budget] deadlines all read it. Defaults
      to [Unix.gettimeofday] (wall time); a benchmark may install a
      monotonic clock, a test a fake one. Reads from spawned domains are
      well-defined (the slot is atomic). *)

  val set : (unit -> float) -> unit

  val now : unit -> float
end

module Quantile : sig
  (** Streaming quantile estimation over a fixed log-bucketed histogram
      (DDSketch-style): constant memory, no allocation per [add], and any
      quantile of the positive observations is reported with relative
      error ≤ ~5% (bucket boundaries grow geometrically by
      γ = 1.05/0.95; estimates are bucket geometric midpoints, so the
      error bound is √γ − 1 ≈ 5.1%). Zero and negative observations
      count in a dedicated zero bucket and report as [0.].

      Not internally synchronised — the instance inside each
      {!Metrics.histogram} is protected by that histogram's mutex. *)

  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  (** [estimate t q] for [q] in [0,1]; [0.] when empty. *)
  val estimate : t -> float -> float

  val clear : t -> unit
end

module Metrics : sig
  type registry

  (** The process-wide registry every instrumented library uses by
      default. *)
  val global : registry

  (** A fresh, independent registry (tests). *)
  val registry : unit -> registry

  (** {1 Counters} *)

  type counter

  (** [counter ?registry name] registers (or finds — registration is
      idempotent, the same name yields the same counter) a counter. *)
  val counter : ?registry:registry -> string -> counter

  (** Atomic (one fetch-and-add): increments from parallel domains are
      never lost — [n] domains adding [k] each always totals [n·k]. *)
  val incr : ?by:int -> counter -> unit

  val count : counter -> int

  (** {1 Histograms} *)

  type histogram

  (** Idempotent, like {!counter}. Histograms and counters live in
      separate namespaces. *)
  val histogram : ?registry:registry -> string -> histogram

  (** Guarded by a per-histogram mutex, so the (count, sum, min, max,
      quantile sketch) state stays internally consistent under parallel
      observation. *)
  val observe : histogram -> float -> unit

  type hstats = {
    observations : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }
  (** [min]/[max] are [+∞]/[−∞] when [observations = 0]. The quantiles
      are {!Quantile} estimates (~5% relative error); [0.] when empty. *)

  val stats : histogram -> hstats

  val mean : hstats -> float

  (** {1 Snapshots} *)

  type snapshot = {
    counters : (string * int) list;
    histograms : (string * hstats) list;
  }

  (** Current values, in registration order. Zero-valued metrics are
      included: a registered name is part of the catalogue. *)
  val snapshot : ?registry:registry -> unit -> snapshot

  (** Zero every value (quantile sketches included); registrations (and
      the handles already handed out) stay valid. *)
  val reset : ?registry:registry -> unit -> unit

  (** Rendered output is sorted by metric name — deterministic across
      runs regardless of module-load (registration) order. *)
  val to_text : snapshot -> string

  val to_json : snapshot -> Json.t
end

module Trace : sig
  (** A completed span: {!Clock} interval plus completed sub-spans in
      start order. *)
  type span = { name : string; start : float; stop : float; children : span list }

  val duration : span -> float

  (** A sink receives each completed {e root} span (children arrive
      inside their parent, not separately). *)
  type sink = span -> unit

  (** No sink installed ⇒ {!with_span} runs its thunk directly. *)
  val enabled : unit -> bool

  (** [install ?now sink] turns tracing on and resets this domain's span
      stack. [now], when given, is installed as the {!Clock}. *)
  val install : ?now:(unit -> float) -> sink -> unit

  val uninstall : unit -> unit

  (** [with_span name f] runs [f ()] inside a span when a sink is
      installed (the span closes even if [f] raises), and is just
      [f ()] otherwise.

      Span stacks are {e domain-local}: a span opened inside a spawned
      domain nests under that domain's open spans only, and when the
      domain's outermost span completes it reaches the sink as a
      separate root span — it is never attached under another domain's
      currently-open span (attachment across domains would race with the
      parent closing). Sink invocations are serialised by an internal
      mutex, so {!collector} is safe to use from parallel code. *)
  val with_span : string -> (unit -> 'a) -> 'a

  (** [op ?detail name f] brackets one library operation ([pquery.rank],
      [integrate], [store.save], …). It opens the span [name] exactly as
      {!with_span} does, and always, sink or not:
      - times [f] with {!Clock.now} and feeds the histogram
        ["<subsystem>.latency"] in milliseconds, where the subsystem is
        [name] up to its first ['.'];
      - counts [obs.ops_recorded], and [obs.slow_ops] when the op took
        1 s or more;
      - when {!Event}s are on, emits an event named [name] with fields
        [dur_ms], [outcome], [detail] (omitted when empty), then the
        {!note}s in call order — plus a ["slow_op"] event for a slow op.

      The outcome is ["ok"], ["error:<exn>"] when [f] raises (the
      exception is re-raised), or the last {!outcome} override. *)
  val op : ?detail:string -> string -> (unit -> 'a) -> 'a

  (** [note key v] annotates the innermost op open on this domain (no-op
      outside {!op}). Repeated keys all appear, in call order. *)
  val note : string -> Json.t -> unit

  (** [outcome s] overrides the innermost open op's outcome, e.g. for an
      error returned as a value rather than raised. *)
  val outcome : string -> unit

  (** [ids ()] is [(trace_id, span_id)] of this domain's innermost open
      span: the trace id names the root span of the open tree, the span
      id the innermost frame. [(0, 0)] when no span is open on this
      domain — in particular whenever tracing is off. {!Event.emit}
      stamps these onto every event so a JSONL stream joins against the
      exported trace. *)
  val ids : unit -> int * int

  (** [collector ()] is a sink that accumulates root spans, and the
      function that returns them in completion order. *)
  val collector : unit -> sink * (unit -> span list)

  (** Render a span tree, one line per span, indented two spaces per
      level; [max_depth] prunes deep recursions (depth 0 = root only). *)
  val to_text : ?max_depth:int -> span -> string

  val to_json : span -> Json.t

  (** [to_chrome roots] is the whole collected forest as Chrome
      trace-event JSON (["traceEvents"] of complete — [ph "X"] — events),
      loadable by Perfetto / [chrome://tracing]. Timestamps are
      microseconds relative to the earliest root; each root tree gets its
      own [tid] row, so spans from spawned domains appear as parallel
      tracks. *)
  val to_chrome : span list -> Json.t

  val human_duration : float -> string
end

module Event : sig
  (** Structured events. Emission is {e off} by default
      and [emit] is then one atomic load and a branch, so call sites can
      stay unconditional. [enable] installs a lock-free bounded ring
      keeping the last [capacity] events (and optionally mirrors every
      event to a sink, e.g. {!jsonl_sink}); overwritten events are
      counted {e exactly} by the [obs.events_dropped] counter
      ([obs.events_emitted] counts all of them). Concurrent emitters
      never tear a record: a slot swap is one atomic store of an
      immutable record. *)

  type t = {
    ts : float;  (** {!Clock.now} at emission *)
    name : string;  (** e.g. ["budget.trip"]; doc/observability.md has the catalogue *)
    trace_id : int;  (** {!Trace.ids} fst; 0 when no span was open *)
    span_id : int;  (** {!Trace.ids} snd; 0 when no span was open *)
    fields : (string * Json.t) list;
  }

  val enabled : unit -> bool

  (** [enable ?capacity ?sink ()] starts recording into a fresh ring
      (default capacity 4096). Raises [Invalid_argument] on
      non-positive capacity. *)
  val enable : ?capacity:int -> ?sink:(t -> unit) -> unit -> unit

  val disable : unit -> unit

  (** [emit ?fields name] records one event (no-op when disabled). The
      sink, if any, runs under an internal mutex. *)
  val emit : ?fields:(string * Json.t) list -> string -> unit

  (** Events emitted into the current ring since [enable] (0 when
      disabled) — drops included. *)
  val emitted : unit -> int

  (** Surviving events, oldest first: exactly the last
      [min (emitted ()) capacity] events once emitters are quiescent. *)
  val recent : unit -> t list

  val to_json : t -> Json.t

  (** Inverse of {!to_json} (for the [report] aggregator): requires a
      numeric ["ts"] and string ["name"]; ids and fields default. *)
  val of_json : Json.t -> (t, string) result

  (** [jsonl_sink oc] writes one compact JSON object per line. The
      caller owns (flushes/closes) the channel. *)
  val jsonl_sink : out_channel -> t -> unit

  (** [field name ev] is the field's value, if present. *)
  val field : string -> t -> Json.t option
end
