(* Differential fuzz harness: every evaluation strategy must tell the same
   story. Random probabilistic documents (seeded, reproducible) are queried
   with a pool of query shapes, and the answers of the direct evaluator,
   the top-k early-terminating enumerator and the answer cache are all
   compared against full world enumeration — the reference semantics. The Monte-Carlo sampler is checked for statistical
   convergence separately. Any disagreement prints the reproducing seed and
   query and fails the run.

   The static analyzer rides along: the reference enumeration runs with
   the static-empty prune disabled, so (a) a query the analyzer flags as
   statically empty must enumerate to zero answers (soundness), and (b)
   every pruning strategy below, which runs with the default prune on, is
   differentially compared against the unpruned reference. A precision
   smoke test asserts the paper's golden queries are never flagged on
   their own documents.

   Runs under `dune runtest` and alone via `dune build @fuzz-smoke`; case
   count is overridable through FUZZ_CASES. *)

module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Pquery = Imprecise.Pquery
module Answer = Imprecise.Answer
module Store = Imprecise.Store
module Obs = Imprecise.Obs
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Summary = Imprecise.Analyze.Summary
module Query_check = Imprecise.Analyze.Query_check
module Cost = Imprecise.Analyze.Cost
module Plan = Imprecise.Analyze.Plan

(* The pool leans on the generator's alphabet (tags a b c item name, words
   x y zz hello 42) so matches are likely. count(...) and some...satisfies
   queries are single-valued: exactly one answer value per world. *)
let queries =
  [|
    "//a";
    "//b";
    "//c";
    "//item";
    "//name";
    "//a/b";
    "//item/name";
    "/a";
    "//a//c";
    "//*";
    "//a[b]";
    {|//a[.="x"]|};
    {|//name[.="hello" or .="y"]|};
    {|//item[name="42"]/b|};
    {|//a[contains(.,"z")]|};
    "//a | //b";
    "//a/..";
    "count(//a)";
    "count(//item | //name)";
    {|some $x in //name satisfies $x = "y"|};
    (* widened direct fragment (PR 9): descendant axes, contains, relative
       paths, positional predicates below the binder, trailing text() *)
    "/descendant::a";
    "//item/descendant::b";
    {|descendant::item[contains(name,"4")]|};
    {|//a[b[1]="x"]|};
    {|//item[name="42"]/b[2]|};
    "//a/text()";
    "item/name";
  |]

let single_valued q =
  String.length q >= 5 && (String.sub q 0 5 = "count" || String.sub q 0 5 = "some ")

let cases =
  match Sys.getenv_opt "FUZZ_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 600)
  | None -> 600

let failures = ref 0

let pruned_cases = ref 0

let fail seed query fmt =
  incr failures;
  Fmt.epr "FAIL (reproduce: seed %d, query %s)@.  " seed query;
  Fmt.epr (fmt ^^ "@.")

let pp_answers answers = Fmt.str "%a" Answer.pp answers

let agree = Answer.equal ~tolerance:1e-9

let check_case i =
  let seed = i in
  let query = queries.(i mod Array.length queries) in
  let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
  let world_count = Pxml.world_count doc in
  if world_count > 5000. then false
  else begin
    (* the reference is the raw semantics: the static prune stays off so it
       can act as ground truth for the analyzer itself *)
    let c_worlds = Obs.Metrics.counter "pquery.worlds_enumerated" in
    let worlds_before = Obs.Metrics.count c_worlds in
    let reference =
      Pquery.rank ~strategy:Pquery.Enumerate_only ~static_check:false doc query
    in
    let observed_worlds = Obs.Metrics.count c_worlds - worlds_before in
    (* static analysis soundness: flagged empty ⇒ zero enumerated answers *)
    (match Imprecise.Xpath.Parser.parse query with
    | Error e -> fail seed query "query pool entry does not parse: %s" e
    | Ok expr ->
        if Query_check.statically_empty ~summary:(Summary.of_doc doc) expr then begin
          incr pruned_cases;
          if reference <> [] then
            fail seed query "statically empty, but enumeration found %d answer(s):@.%s"
              (List.length reference) (pp_answers reference)
        end);
    (* properties of the reference itself *)
    List.iter
      (fun (a : Answer.t) ->
        if not (a.Answer.prob > 0. && a.Answer.prob <= 1. +. 1e-9) then
          fail seed query "probability out of (0,1]: %g for %S" a.Answer.prob
            a.Answer.value)
      reference;
    let enumerated, multi_root =
      Seq.fold_left
        (fun (n, multi) (_, forest) -> (n + 1, multi || List.length forest <> 1))
        (0, false) (Worlds.enumerate doc)
    in
    (* count()/some queries produce exactly one value per {e root}; only
       when every world is single-rooted is the query single-valued and its
       total mass bounded by 1 *)
    if single_valued query && not multi_root then begin
      let mass = List.fold_left (fun acc (a : Answer.t) -> acc +. a.Answer.prob) 0. reference in
      if mass > 1. +. 1e-9 then
        fail seed query "single-valued query carries mass %g > 1" mass
    end;
    (* the generator never emits zero-probability choices, so the skip in
       [enumerate] must not change the yield count *)
    if float_of_int enumerated <> world_count then
      fail seed query "world_count %g but enumerate yielded %d worlds" world_count
        enumerated;
    (* direct evaluator, where the query is in its class; the prune stays
       off so a statically-empty query cannot short-circuit past Direct
       (the route certification below needs to know what Direct itself did) *)
    let direct_ok =
      match Pquery.rank ~strategy:Pquery.Direct_only ~static_check:false doc query with
      | direct ->
          if not (agree direct reference) then
            fail seed query "direct disagrees:@.%s@.vs enumeration:@.%s"
              (pp_answers direct) (pp_answers reference);
          true
      | exception Pquery.Cannot_answer _ -> false
    in
    (* static planner certification: the route prediction must agree with
       what the direct evaluator actually did, and the cost model's world
       bound must dominate what enumeration observed *)
    let plan = Pquery.plan doc query in
    (match (plan.Plan.route, direct_ok) with
    | Plan.Direct, false ->
        fail seed query "planner routed direct but the direct evaluator refused"
    | Plan.Enumerate, true ->
        fail seed query "planner routed enumerate (%s) but direct succeeded"
          (String.concat "; "
             (List.map
                (fun (d : Imprecise.Analyze.Diag.t) -> d.Imprecise.Analyze.Diag.code)
                plan.Plan.reasons))
    | Plan.Direct, true | Plan.Enumerate, false -> ());
    if plan.Plan.cost.Cost.worlds +. 1e-9 < float_of_int observed_worlds then
      fail seed query "cost bound violated: predicted <= %g worlds, enumeration observed %d"
        plan.Plan.cost.Cost.worlds observed_worlds;
    (* top-k: the head of the reference ranking, probabilities intact *)
    List.iter
      (fun k ->
        let topk = Pquery.rank ~strategy:Pquery.Enumerate_only ~top_k:k doc query in
        let expected = List.filteri (fun i _ -> i < k) reference in
        if not (agree topk expected) then
          fail seed query "top_k=%d disagrees:@.%s@.vs reference head:@.%s" k
            (pp_answers topk) (pp_answers expected))
      [ 1; 3 ];
    (* the answer cache: a miss computing the reference, then a hit *)
    let hits = Obs.Metrics.counter "pquery.cache.hit" in
    let collection = Printf.sprintf "fuzz%d" i in
    let cached1 =
      Pquery.rank ~strategy:Pquery.Enumerate_only ~cache:(collection, i) doc query
    in
    let hits_before = Obs.Metrics.count hits in
    let cached2 =
      Pquery.rank ~strategy:Pquery.Enumerate_only ~cache:(collection, i) doc query
    in
    if Obs.Metrics.count hits <> hits_before + 1 then
      fail seed query "second cached rank call was not a cache hit";
    if not (agree cached1 reference && agree cached2 reference) then
      fail seed query "cached answers disagree:@.%s@.vs:@.%s" (pp_answers cached2)
        (pp_answers reference);
    true
  end

(* The sampler cannot meet 1e-9; it must converge statistically. With
   n = 4000 the standard error is at most ~0.008, so 0.05 is > 6 sigma. *)
let check_sampling seed =
  let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
  if Pxml.world_count doc <= 5000. then
    List.iter
      (fun query ->
        let exact = Pquery.rank ~strategy:Pquery.Enumerate_only doc query in
        let sampled =
          Pquery.rank ~strategy:(Pquery.Sample { n = 4000; seed = (seed * 3) + 1 }) doc
            query
        in
        let prob answers v =
          match List.find_opt (fun (a : Answer.t) -> a.Answer.value = v) answers with
          | Some a -> a.Answer.prob
          | None -> 0.
        in
        List.iter
          (fun (a : Answer.t) ->
            let p = prob sampled a.Answer.value in
            if Float.abs (p -. a.Answer.prob) > 0.05 then
              fail seed query "sampling did not converge on %S: exact %.4f, sampled %.4f"
                a.Answer.value a.Answer.prob p)
          exact;
        List.iter
          (fun (a : Answer.t) ->
            if prob exact a.Answer.value = 0. then
              fail seed query "sampler produced impossible value %S (p=%.4f)"
                a.Answer.value a.Answer.prob)
          sampled)
      [ "//a"; "//name"; "count(//a)" ]

(* Precision smoke: the static analyzer must never flag the paper's golden
   queries on the documents they are meant for — a false "empty" there
   would silently prune real answers. *)
let check_precision () =
  let flagged summary q =
    match Imprecise.Xpath.Parser.parse q with
    | Ok e -> Query_check.statically_empty ~summary e
    | Error e ->
        fail 0 q "golden query does not parse: %s" e;
        true
  in
  let assert_clean label summary queries =
    List.iter
      (fun q -> if flagged summary q then fail 0 q "%s golden query flagged empty" label)
      queries
  in
  let module Addressbook = Imprecise.Data.Addressbook in
  let module Workloads = Imprecise.Data.Workloads in
  (match
     Imprecise.integrate ~rules:Imprecise.Rulesets.generic ~dtd:Addressbook.dtd
       Addressbook.source_a Addressbook.source_b
   with
  | Error _ -> fail 0 "fig2" "fig2 integration failed"
  | Ok doc ->
      assert_clean "fig2" (Summary.of_doc doc)
        [ "//person"; "//person/nm"; "//person/tel" ]);
  let wl = Workloads.confusing () in
  let rules = Imprecise.Rulesets.movie ~genre:true ~title:true ~director:true () in
  match
    Imprecise.integrate ~rules ~dtd:wl.Workloads.dtd (Workloads.mpeg7_doc wl)
      (Workloads.imdb_doc wl)
  with
  | Error _ -> fail 0 "§VI" "movie integration failed"
  | Ok doc ->
      assert_clean "§VI" (Summary.of_doc doc)
        [
          {|//movie[.//genre="Horror"]/title|};
          {|//movie[some $d in .//director satisfies contains($d,"John")]/title|};
        ]

let () =
  let ran = ref 0 in
  let skipped = ref 0 in
  for i = 0 to cases - 1 do
    if check_case i then incr ran else incr skipped
  done;
  List.iter check_sampling [ 1; 5; 9 ];
  check_precision ();
  Fmt.pr
    "fuzz: %d differential cases (%d skipped as too large, %d statically pruned), 3 \
     sampling seeds, 2 precision documents, %d disagreements@."
    !ran !skipped !pruned_cases !failures;
  if !failures > 0 then exit 1
