(* IMPrECISE — "good is good enough" probabilistic XML data integration.
   Facade over the subsystem libraries; see imprecise.mli for the tour. *)

module Xml = Imprecise_xml
module Tree = Imprecise_xml.Tree
module Dtd = Imprecise_xml.Dtd
module Pxml = Imprecise_pxml.Pxml
module Worlds = Imprecise_pxml.Worlds
module Compact = Imprecise_pxml.Compact
module Codec = Imprecise_pxml.Codec
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
module Data = struct
  module Movie = Imprecise_data.Movie
  module Workloads = Imprecise_data.Workloads
  module Addressbook = Imprecise_data.Addressbook
  module Publications = Imprecise_data.Publications
  module Prng = Imprecise_prng.Prng
  module Random_docs = Imprecise_data.Random_docs
end
module Store = Imprecise_store.Store
module Rulesets = Rulesets
module Obs = Imprecise_obs.Obs
module Resilience = struct
  module Budget = Imprecise_resilience.Budget
  module Retry = Imprecise_resilience.Retry
  module Degrade = Imprecise_resilience.Degrade
  module Chaos = Imprecise_resilience.Chaos
end
module Analyze = struct
  module Diag = Imprecise_analyze.Diag
  module Summary = Imprecise_analyze.Summary
  module Query_check = Imprecise_analyze.Query_check
  module Doc_lint = Imprecise_analyze.Doc_lint
  module Cost = Imprecise_analyze.Cost
  module Plan = Imprecise_analyze.Plan
  module Rule_lint = Imprecise_analyze.Rule_lint
end

let parse_xml s =
  Result.map_error Xml.Parser.error_to_string (Xml.Parser.parse_string s)

let parse_xml_exn = Xml.Parser.parse_string_exn

let config_of_rules (rules : Rulesets.t) ~dtd ?factorize ?jobs ?blocker ?decisions
    ?budget () =
  Integrate.config ~oracle:rules.Rulesets.oracle ~reconcile:rules.Rulesets.reconcile ~dtd
    ?factorize ?jobs ?blocker ?decisions ?budget ()

let integrate ?(rules = Rulesets.full) ?(dtd = Dtd.empty) ?factorize ?blocker left right =
  Integrate.integrate (config_of_rules rules ~dtd ?factorize ?blocker ()) left right

let integration_stats ?(rules = Rulesets.full) ?(dtd = Dtd.empty) ?factorize ?blocker
    ?budget left right =
  Integrate.stats (config_of_rules rules ~dtd ?factorize ?blocker ?budget ()) left right

(* Fold a whole list of sources into one probabilistic document: ordinary
   integration for the first two, incremental integration for the rest.
   One decision cache serves the whole fold, so a subtree pair decided
   while integrating source k is free when source k+1 meets it again. The cache is created fresh
   here — it must not outlive the rule set it memoizes. *)
let integrate_many ?(rules = Rulesets.full) ?(dtd = Dtd.empty) ?factorize ?blocker
    ?jobs ?decisions ?budget sources =
  match sources with
  | [] -> Error Integrate.No_sources
  | [ only ] -> Ok (Pxml.doc_of_tree only)
  | first :: second :: rest ->
      let decisions =
        match decisions with Some c -> c | None -> Decision_cache.create ()
      in
      let cfg =
        config_of_rules rules ~dtd ?factorize ?jobs ?blocker ~decisions ?budget ()
      in
      Result.bind (Integrate.integrate cfg first second) (fun doc ->
          List.fold_left
            (fun acc source ->
              Result.bind acc (fun doc ->
                  Integrate.integrate_incremental cfg doc source))
            (Ok doc) rest)

let rank = Pquery.rank

(* Merge the per-document summaries: sound for every document in the
   store, so one summary serves collection-wide query analysis. *)
let summarize_store store =
  List.fold_left
    (fun acc name ->
      match Store.get store name with
      | None -> acc
      | Some (Store.Probabilistic doc) ->
          Analyze.Summary.merge acc (Analyze.Summary.of_doc doc)
      | Some (Store.Certain tree) -> Analyze.Summary.merge acc (Analyze.Summary.of_tree tree))
    Analyze.Summary.empty (Store.names store)

(* The store knows each document's generation; the cache key needs it.
   This is the one place that dependency is tied together — Pquery cannot
   depend on Store. *)
let query_store ?budget ?strategy ?world_limit ?top_k store name query =
  match Store.get store name with
  | None -> Error (Fmt.str "no document %S in store" name)
  | Some stored -> (
      let doc =
        match stored with
        | Store.Probabilistic doc -> doc
        | Store.Certain tree -> Pxml.doc_of_tree tree
      in
      let generation = Option.value ~default:0 (Store.generation store name) in
      match
        Pquery.rank ?budget ?strategy ?world_limit ?top_k ~cache:(name, generation) doc
          query
      with
      | answers -> Ok answers
      | exception Pquery.Cannot_answer msg -> Error msg
      | exception Failure msg -> Error msg
      | exception Imprecise_resilience.Budget.Exceeded reason ->
          Error
            (Fmt.str "budget exceeded (%s); raise --timeout-ms/--max-worlds or use rank_graded"
               (Imprecise_resilience.Budget.reason_to_string reason)))

let explain = Pquery.explain

let query_certain = Xpath.Eval.select_strings

let node_count = Pxml.node_count

let world_count = Pxml.world_count
