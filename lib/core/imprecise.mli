(** IMPrECISE — probabilistic XML data integration, after de Keijzer & van
    Keulen, ICDE 2008.

    The one-module tour:

    {[
      let left  = Imprecise.parse_xml_exn "<addressbook>...</addressbook>" in
      let right = Imprecise.parse_xml_exn "<addressbook>...</addressbook>" in
      let dtd   = Result.get_ok (Imprecise.Dtd.of_string "person: nm?, tel?") in
      match Imprecise.integrate ~rules:Imprecise.Rulesets.generic ~dtd left right with
      | Error e -> Fmt.epr "%a@." Imprecise.Integrate.pp_error e
      | Ok doc ->
          Fmt.pr "%d nodes, %g worlds@."
            (Imprecise.node_count doc) (Imprecise.world_count doc);
          Fmt.pr "%a" Imprecise.Answer.pp (Imprecise.rank doc "//person/nm")
    ]}

    Sub-modules re-export the full API of each subsystem: {!Xml} (trees,
    parser, printer, {!Dtd}), {!Pxml} (the probabilistic model, with
    {!Worlds}, {!Compact}, {!Codec}), {!Xpath} (the query language),
    {!Oracle} and {!Similarity} (knowledge rules), {!Integrate} and
    {!Matching} (probabilistic integration), {!Pquery}/{!Answer}
    (ranked answers), {!Quality}, {!Feedback}, {!Data} (workloads) and
    {!Store}. *)

module Xml = Imprecise_xml
module Tree = Imprecise_xml.Tree
module Dtd = Imprecise_xml.Dtd
module Pxml = Imprecise_pxml.Pxml
module Worlds = Imprecise_pxml.Worlds
module Compact = Imprecise_pxml.Compact
module Codec = Imprecise_pxml.Codec

(** Compact binary document codec — the on-disk v3 store format. *)
module Bincodec = Imprecise_pxml.Bincodec

module Xpath = Imprecise_xpath
module Oracle = Imprecise_oracle.Oracle
module Decision_cache = Imprecise_oracle.Decision_cache
module Similarity = Imprecise_oracle.Similarity
module Integrate = Imprecise_integrate.Integrate
module Matching = Imprecise_integrate.Matching
module Blocking = Imprecise_integrate.Blocking
module Pquery = Imprecise_pquery.Pquery
module Answer = Imprecise_pquery.Answer
module Quality = Imprecise_quality.Quality
module Feedback = Imprecise_feedback.Feedback

module Data : sig
  module Movie = Imprecise_data.Movie
  module Workloads = Imprecise_data.Workloads
  module Addressbook = Imprecise_data.Addressbook
  module Publications = Imprecise_data.Publications
  module Prng = Imprecise_prng.Prng
  module Random_docs = Imprecise_data.Random_docs
end

module Store = Imprecise_store.Store
module Rulesets = Rulesets

(** Telemetry: metrics registry, tracing spans, JSON snapshots (see
    doc/observability.md). *)
module Obs = Imprecise_obs.Obs

(** Resilience: deadlines and work budgets ({!Resilience.Budget}),
    retry with backoff ({!Resilience.Retry}), graceful degradation
    ({!Resilience.Degrade}) and scripted fault plans for chaos testing
    ({!Resilience.Chaos}). See doc/resilience.md. *)
module Resilience : sig
  module Budget = Imprecise_resilience.Budget
  module Retry = Imprecise_resilience.Retry
  module Degrade = Imprecise_resilience.Degrade
  module Chaos = Imprecise_resilience.Chaos
end

(** Static analysis: diagnostics, path summaries, query and document
    checks (see doc/analysis.md). *)
module Analyze : sig
  module Diag = Imprecise_analyze.Diag
  module Summary = Imprecise_analyze.Summary
  module Query_check = Imprecise_analyze.Query_check
  module Doc_lint = Imprecise_analyze.Doc_lint
  module Cost = Imprecise_analyze.Cost
  module Plan = Imprecise_analyze.Plan
  module Rule_lint = Imprecise_analyze.Rule_lint
end

(** [parse_xml s] parses a document, with the error rendered as a string. *)
val parse_xml : string -> (Tree.t, string) result

val parse_xml_exn : string -> Tree.t

(** [integrate ?rules ?dtd ?factorize left right] integrates two certain
    documents into a probabilistic one. Defaults: the {!Rulesets.full} rule
    set, no DTD knowledge, the paper-faithful non-factorised
    representation. [blocker] (default {!Blocking.All_pairs}) selects the
    candidate-indexing stage run in front of the Oracle — see {!Blocking}
    for the presets and their recall guarantees. *)
val integrate :
  ?rules:Rulesets.t ->
  ?dtd:Dtd.t ->
  ?factorize:bool ->
  ?blocker:Blocking.spec ->
  Tree.t ->
  Tree.t ->
  (Pxml.doc, Integrate.error) result

(** [integration_stats] — exact node/world counts of the would-be
    integration, without materialising it (works at any scale). [budget]
    bounds the candidate-grid work as in {!integrate_many}. *)
val integration_stats :
  ?rules:Rulesets.t ->
  ?dtd:Dtd.t ->
  ?factorize:bool ->
  ?blocker:Blocking.spec ->
  ?budget:Imprecise_resilience.Budget.t ->
  Tree.t ->
  Tree.t ->
  (Integrate.summary, Integrate.error) result

(** [integrate_many ?rules ?dtd ?factorize ?jobs sources]
    folds any number of sources into one probabilistic document: ordinary
    integration for the first two, {!Integrate.integrate_incremental} for
    each further source. A single source yields its certain embedding; an
    empty list is [Error No_sources].

    Every candidate grid is scored by [jobs] OCaml domains
    ({!Integrate.config}'s [jobs] — bit-identical to sequential for any
    value), and one {!Decision_cache} is shared across the whole fold, so
    subtree pairs already decided for an earlier source are not re-decided
    for later ones. By default the cache is created per call and dies with
    it (rule sets are caller-supplied, so it must not persist); pass
    [decisions] to reuse one across folds {e of the same rule set} — the
    fold is atomic with respect to it: on [Error] the cache holds only
    sound individual verdicts, never partial fold state.

    [budget] ({!Resilience.Budget}) bounds the whole fold — candidate-grid
    cells, local worlds and touched choice combinations tick it; a trip yields
    [Error (Budget_exceeded _)] and, as with any mid-fold failure, no
    partial result escapes. *)
val integrate_many :
  ?rules:Rulesets.t ->
  ?dtd:Dtd.t ->
  ?factorize:bool ->
  ?blocker:Blocking.spec ->
  ?jobs:int ->
  ?decisions:Decision_cache.t ->
  ?budget:Imprecise_resilience.Budget.t ->
  Tree.t list ->
  (Pxml.doc, Integrate.error) result

(** [rank doc query] is the amalgamated ranked answer ({!Pquery.rank}).
    [top_k] keeps only the leading answers, stopping enumeration early
    when they are provably final. [static_check] (default [true]) prunes
    statically-empty queries without evaluation; [cache] memoizes the
    answer under a [(collection, generation)] key — {!query_store} sets
    it from the store. *)
val rank :
  ?budget:Imprecise_resilience.Budget.t ->
  ?strategy:Pquery.strategy ->
  ?static_check:bool ->
  ?world_limit:float ->
  ?top_k:int ->
  ?cache:string * int ->
  Pxml.doc ->
  string ->
  Answer.t list

(** [summarize_store store] merges the path summaries of every document in
    the store — a single {!Analyze.Summary.t} that soundly over-approximates
    all of them, suitable for collection-wide query analysis. *)
val summarize_store : Store.t -> Analyze.Summary.t

(** [query_store store name query] ranks a query over the named stored
    document through the process-wide answer cache: the store supplies the
    document and its {!Store.generation}, so answers computed before a
    [Store.put] of the same name are never served after it. Certain
    documents are queried as single-world probabilistic ones. [Error] on a
    missing name, an unparseable query, or a strategy that cannot answer
    ({!Pquery.Cannot_answer}). A [budget] trip is reported as [Error] too,
    with the cache left untouched. *)
val query_store :
  ?budget:Imprecise_resilience.Budget.t ->
  ?strategy:Pquery.strategy ->
  ?world_limit:float ->
  ?top_k:int ->
  Store.t ->
  string ->
  string ->
  (Answer.t list, string) result

(** [explain ?k doc query value] classifies the most likely worlds by
    whether [value] is part of the answer there (see {!Pquery.explain}). *)
val explain : ?k:int -> Pxml.doc -> string -> string -> Pquery.explanation

(** [query_certain tree query] runs the query engine over a plain document. *)
val query_certain : Tree.t -> string -> string list

val node_count : Pxml.doc -> int

val world_count : Pxml.doc -> float
