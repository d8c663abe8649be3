module Pxml = Imprecise_pxml.Pxml
module Eval = Imprecise_xpath.Eval
module Obs = Imprecise_obs.Obs
module Budget = Imprecise_resilience.Budget
module Degrade = Imprecise_resilience.Degrade

type strategy = Auto | Direct_only | Enumerate_only | Sample of { n : int; seed : int }

exception Cannot_answer of string

(* Which evaluator actually answered, and how much it amalgamated; the
   [Auto] fallback shows up as a direct.unsupported + enumerate pair. *)
let c_ranks = Obs.Metrics.counter "pquery.ranks"

let c_direct = Obs.Metrics.counter "pquery.path.direct"

let c_enumerate = Obs.Metrics.counter "pquery.path.enumerate"

let c_sample = Obs.Metrics.counter "pquery.path.sample"

let c_unsupported = Obs.Metrics.counter "pquery.direct_unsupported"

let c_answers = Obs.Metrics.counter "pquery.answers_amalgamated"

let c_static_pruned = Obs.Metrics.counter "pquery.static_pruned"

let c_degraded = Obs.Metrics.counter "pquery.degraded"

(* registered by Naive; interned here so op notes can report the
   per-query worlds delta without a by-name lookup on the hot path *)
let c_worlds_enumerated = Obs.Metrics.counter "pquery.worlds_enumerated"

(* planning latency, in milliseconds (spans only reach an installed trace
   sink; the histogram is what bench snapshots can gate on) *)
let h_plan = Obs.Metrics.histogram "analyze.plan"

let compile = Eval.compile_exn

let check_top_k = function
  | Some k when k <= 0 -> raise (Cannot_answer "top_k must be positive")
  | _ -> ()

let truncate top_k answers =
  match top_k with Some k -> List.filteri (fun i _ -> i < k) answers | None -> answers

(* Statically-empty queries need no evaluation at all: the analyzer's
   soundness contract (see doc/analysis.md) guarantees zero answers in
   every possible world, so the amalgamated ranking is []. The summary is
   one linear walk of the representation — nothing compared to world
   enumeration, and usually worth it even against the direct evaluator —
   and is shared with the planner below. *)
let statically_empty summary expr =
  Obs.Trace.with_span "analyze.check" @@ fun () ->
  Imprecise_analyze.Query_check.statically_empty ~summary expr

(* The static planner (doc/analysis.md): route + cost bounds + proof
   obligations / fallback reasons, from the summary alone. *)
let plan_of ~summary ?source expr =
  let t0 = Obs.Clock.now () in
  let p =
    Obs.Trace.with_span "analyze.plan" @@ fun () ->
    Imprecise_analyze.Plan.plan ~summary ?source expr
  in
  Obs.Metrics.observe h_plan ((Obs.Clock.now () -. t0) *. 1000.);
  p

(* The one evaluation body behind [rank], [rank_graded] and [explain].
   [top_k_tolerance] stays private: only the ladder's top-k rung loosens it
   (to 1e-2); every public call gets Naive's 1e-9. *)
let rank_compiled ?budget ?(strategy = Auto) ?(static_check = true) ?world_limit ?top_k
    ?top_k_tolerance doc query =
  Obs.Metrics.incr c_ranks;
  Obs.Trace.op "pquery.rank" ~detail:(Eval.compiled_source query) @@ fun () ->
  check_top_k top_k;
  Option.iter Budget.check budget;
  let expr = Eval.compiled_ast query in
  (* One summary serves both static passes; skipped entirely when neither
     the prune nor the planner will run. *)
  let summary =
    if static_check || strategy = Auto then
      Some
        (Obs.Trace.with_span "analyze.summary" (fun () ->
             Imprecise_analyze.Summary.of_doc doc))
    else None
  in
  if
    static_check
    && match summary with Some s -> statically_empty s expr | None -> false
  then begin
    Obs.Metrics.incr c_static_pruned;
    Obs.Trace.note "path" (Obs.Json.String "static_pruned");
    []
  end
  else
  let enumerate () =
    Obs.Metrics.incr c_enumerate;
    Obs.Trace.note "path" (Obs.Json.String "enumerate");
    Obs.Trace.with_span "enumerate" @@ fun () ->
    (* worlds walked by *this* query, as a counter delta — exact in the
       common one-query-at-a-time case, an aggregate-rate approximation
       when parallel queries interleave *)
    let w0 = Obs.Metrics.count c_worlds_enumerated in
    let answers =
      try
        Naive.rank_expr ?budget ?limit:world_limit ?top_k ?tolerance:top_k_tolerance doc
          expr
      with Naive.Too_many_worlds n ->
        raise (Cannot_answer (Fmt.str "document has %g possible worlds; too many to enumerate" n))
    in
    Obs.Trace.note "worlds"
      (Obs.Json.Int (Obs.Metrics.count c_worlds_enumerated - w0));
    answers
  in
  let direct () =
    let answers = Obs.Trace.with_span "direct" (fun () -> Direct.rank_expr doc expr) in
    Obs.Metrics.incr c_direct;
    Obs.Trace.note "path" (Obs.Json.String "direct");
    truncate top_k answers
  in
  let answers =
    match strategy with
    | Enumerate_only -> enumerate ()
    | Direct_only -> (
        try direct ()
        with Direct.Unsupported msg ->
          Obs.Metrics.incr c_unsupported;
          raise (Cannot_answer msg))
    | Auto -> (
        let plan =
          plan_of
            ~summary:(Option.get summary) (* always built for Auto *)
            ~source:(Eval.compiled_source query)
            expr
        in
        Obs.Trace.note "plan" (Imprecise_analyze.Plan.to_json plan);
        if Obs.Event.enabled () then
          Obs.Event.emit
            ~fields:
              [
                ("query", Obs.Json.String (Eval.compiled_source query));
                ("plan", Imprecise_analyze.Plan.to_json plan);
              ]
            "pquery.plan";
        match plan.Imprecise_analyze.Plan.route with
        | Imprecise_analyze.Plan.Direct -> (
            try direct ()
            with Direct.Unsupported _ ->
              (* unreachable by construction — the planner and evaluator
                 share one fragment definition — but never let a planner
                 defect lose an answer *)
              Obs.Metrics.incr c_unsupported;
              enumerate ())
        | Imprecise_analyze.Plan.Enumerate ->
            if plan.Imprecise_analyze.Plan.reasons <> [] then
              Obs.Metrics.incr c_unsupported;
            enumerate ())
    | Sample { n; seed } ->
        if n <= 0 then raise (Cannot_answer "sample size must be positive");
        Obs.Metrics.incr c_sample;
        Obs.Trace.note "path" (Obs.Json.String "sample");
        Obs.Trace.with_span "sample" @@ fun () ->
        let worlds, _ =
          Imprecise_pxml.Worlds.sample_many ~n (Imprecise_prng.Prng.make seed) doc
        in
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (_, forest) ->
            Option.iter Budget.tick budget;
            List.iter
              (fun v ->
                let prev = Option.value ~default:0. (Hashtbl.find_opt tbl v) in
                Hashtbl.replace tbl v (prev +. (1. /. float_of_int n)))
              (Naive.answer_in_world forest expr))
          worlds;
        truncate top_k
          (Answer.rank
             (Hashtbl.fold (fun value prob acc -> { Answer.value; prob } :: acc) tbl []))
  in
  Obs.Metrics.incr ~by:(List.length answers) c_answers;
  Obs.Trace.note "answers" (Obs.Json.Int (List.length answers));
  answers

(* ---- graceful degradation ------------------------------------------------ *)

(* Exceptions that mean "the exact computation was too expensive" — the
   next rung of the ladder may still answer. Anything else (parse errors,
   invalid arguments, IO) propagates untouched. *)
let degradable = function
  | Budget.Exceeded _ | Naive.Too_many_worlds _ | Cannot_answer _ -> true
  | _ -> false

(* The sampling rung is fixed-cost: n draws, whatever the document size.
   Hoeffding: P(|p̂ - p| > ε) <= 2·exp(-2nε²) per value, so with
   ε = sqrt(ln(2/(1-c)) / 2n) each reported probability is within ε of the
   true one with probability at least c. *)
let sample_n = 4096

let sample_confidence = 0.999

let sample_tolerance =
  sqrt (log (2. /. (1. -. sample_confidence)) /. (2. *. float_of_int sample_n))

let rank_graded ?budget ?world_limit ?top_k doc query =
  (* The graded op is the audit trail for a degraded answer: the ladder's
     fallbacks land here as "degraded_from" notes (each failed rung closed
     its own pquery.rank op before the fallback fired), and the final
     grade is noted below. *)
  Obs.Trace.op "pquery.rank_graded" ~detail:query @@ fun () ->
  (* an invalid argument is not a budget trip: refuse it before any rung
     runs, so it never descends the ladder *)
  check_top_k top_k;
  let compiled = compile query in
  (* Sub-budgets are carved eagerly: the exact rung gets 60% of whatever
     deadline/pool the caller granted, the top-k rung 80% — tripping a
     sub-budget leaves the caller's own budget live, so later rungs still
     get their slice. The sampling rung takes no budget at all: its cost
     is fixed, so it always returns, which is what makes the ladder
     total. *)
  let sub fraction = Option.map (Budget.sub ~fraction) budget in
  let rungs =
    [
      {
        Degrade.name = "exact";
        run =
          (fun () ->
            Degrade.exact
              (rank_compiled ?budget:(sub 0.6) ?world_limit ?top_k doc compiled));
      };
      {
        Degrade.name = "top_k";
        run =
          (fun () ->
            let k = Option.value ~default:10 top_k in
            Degrade.approximate ~rung:"top_k" ~tolerance:1e-2 ~confidence:1.
              (rank_compiled ?budget:(sub 0.8) ~strategy:Enumerate_only
                 ~world_limit:5e6 ~top_k:k ~top_k_tolerance:1e-2 doc compiled));
      };
      {
        Degrade.name = "sample";
        run =
          (fun () ->
            Degrade.approximate ~rung:"sample" ~tolerance:sample_tolerance
              ~confidence:sample_confidence
              (rank_compiled
                 ~strategy:(Sample { n = sample_n; seed = 42 })
                 ?top_k doc compiled));
      };
    ]
  in
  let graded = Degrade.ladder ~degradable rungs in
  Obs.Trace.note "grade"
    (Obs.Json.String (Fmt.str "%a" Degrade.pp_grade graded.Degrade.grade));
  if not (Degrade.is_exact graded.Degrade.grade) then begin
    Obs.Metrics.incr c_degraded;
    Obs.Trace.outcome "degraded"
  end;
  graded

(* ---- the LRU answer cache ----------------------------------------------- *)

(* Everything besides the document state and the query text that can change
   the answer must land in the cache key: the strategy and the top-k cut
   (public calls all share one top-k tolerance). [world_limit] and
   [static_check] are left out — they bound or skip effort, never change
   the value, so a hit just means the effort was already spent. *)
let variant_of ~strategy ~top_k =
  let s =
    match strategy with
    | Auto -> "auto"
    | Direct_only -> "direct"
    | Enumerate_only -> "enumerate"
    | Sample { n; seed } -> Printf.sprintf "sample:%d:%d" n seed
  in
  match top_k with None -> s | Some k -> Printf.sprintf "%s:top%d" s k

let rank ?budget ?(strategy = Auto) ?static_check ?world_limit ?top_k ?cache doc query =
  let run () =
    rank_compiled ?budget ~strategy ?static_check ?world_limit ?top_k doc (compile query)
  in
  match cache with
  | None -> run ()
  | Some (collection, generation) -> (
      let key =
        Cache.key ~collection ~generation ~variant:(variant_of ~strategy ~top_k) ~query
      in
      match Cache.find Cache.global key with
      | Some answers -> answers
      | None ->
          (* [Cache.add] runs only after [run] returns normally: a rank that
             raises — budget trip, Too_many_worlds, anything — leaves the
             cache untouched, so a cancelled query can never poison later
             lookups with a partial result. (Regression-tested in
             test_pquery.ml.) *)
          let answers = run () in
          Cache.add Cache.global key answers;
          answers)

let plan doc query =
  let expr = Imprecise_xpath.Parser.parse_exn query in
  plan_of ~summary:(Imprecise_analyze.Summary.of_doc doc) ~source:query expr

let used_strategy doc query =
  match (plan doc query).Imprecise_analyze.Plan.route with
  | Imprecise_analyze.Plan.Direct -> `Direct
  | Imprecise_analyze.Plan.Enumerate -> `Enumerate

type explanation = {
  prob : float;
  supporting : (float * Imprecise_xml.Tree.t list) list;
  opposing : (float * Imprecise_xml.Tree.t list) list;
  covered : float;
}

let explain ?(k = 10) doc query value =
  (* Parse once and rank once; the ranked answers and the per-world check
     reuse the same compiled handle. *)
  let compiled = compile query in
  let expr = Eval.compiled_ast compiled in
  let answers = rank_compiled doc compiled in
  let prob =
    match List.find_opt (fun (a : Answer.t) -> a.Answer.value = value) answers with
    | Some a -> a.Answer.prob
    | None -> 0.
  in
  let worlds = Imprecise_pxml.Worlds.most_likely ~k doc in
  let supporting, opposing =
    List.partition
      (fun (_, forest) -> List.mem value (Naive.answer_in_world forest expr))
      worlds
  in
  let covered = List.fold_left (fun acc (p, _) -> acc +. p) 0. worlds in
  { prob; supporting; opposing; covered }
