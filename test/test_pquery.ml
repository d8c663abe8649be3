(* Tests for probabilistic querying: the amalgamated-answer machinery, the
   world-enumeration reference evaluator, and the direct compositional
   evaluator — cross-checked against each other on unit cases, random
   documents and real integration results. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Answer = Imprecise.Answer
module Naive = Imprecise_pquery.Naive
module Direct = Imprecise_pquery.Direct
module Pquery = Imprecise.Pquery
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads
module Rulesets = Imprecise.Rulesets
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs

let check = Alcotest.check

let answers_agree ?(tolerance = 1e-9) a b =
  Answer.equal ~tolerance a b

let pp_answers answers = Fmt.str "%a" Answer.pp answers

(* ---- answers ---------------------------------------------------------------- *)

let test_rank_orders () =
  let a = { Answer.value = "b"; prob = 0.5 } in
  let b = { Answer.value = "a"; prob = 0.9 } in
  let c = { Answer.value = "a-tie"; prob = 0.5 } in
  check Alcotest.(list string) "by prob then value" [ "a"; "a-tie"; "b" ]
    (List.map (fun (x : Answer.t) -> x.value) (Answer.rank [ a; b; c ]))

let test_of_prob_map_merges () =
  let answers = Answer.of_prob_map [ ("x", 0.2); ("y", 0.5); ("x", 0.25) ] in
  match answers with
  | [ y; x ] ->
      check Alcotest.string "top" "y" y.Answer.value;
      check (Alcotest.float 1e-9) "merged" 0.45 x.Answer.prob
  | _ -> Alcotest.fail "expected two answers"

(* ---- the figure-2 document --------------------------------------------------- *)

let fig2 =
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd ()
  in
  match Integrate.integrate cfg Addressbook.source_a Addressbook.source_b with
  | Ok doc -> doc
  | Error _ -> assert false

let test_fig2_tel_probabilities () =
  (* Each phone number exists in the no-match world (0.5) and in one of the
     two match sub-worlds (0.25). *)
  let answers = Pquery.rank fig2 "//person/tel" in
  match answers with
  | [ x; y ] ->
      check (Alcotest.float 1e-9) "1111" 0.75 x.Answer.prob;
      check (Alcotest.float 1e-9) "2222" 0.75 y.Answer.prob
  | l -> Alcotest.failf "expected two answers, got %s" (pp_answers l)

let test_fig2_nm_certain () =
  match Pquery.rank fig2 "//person/nm" with
  | [ { Answer.value = "John"; prob } ] -> check (Alcotest.float 1e-9) "certain" 1. prob
  | l -> Alcotest.failf "unexpected: %s" (pp_answers l)

let test_fig2_count_predicate () =
  (* persons = 2 only in the no-match world *)
  match Pquery.rank fig2 "//addressbook[count(person)=2]/person/tel" with
  | answers ->
      List.iter (fun (a : Answer.t) -> check (Alcotest.float 1e-9) a.value 0.5 a.prob) answers;
      check Alcotest.int "both phones" 2 (List.length answers)

let test_strategies_agree_fig2 () =
  List.iter
    (fun q ->
      let d = Pquery.rank ~strategy:Pquery.Direct_only fig2 q in
      let n = Pquery.rank ~strategy:Pquery.Enumerate_only fig2 q in
      if not (answers_agree d n) then
        Alcotest.failf "%s:\ndirect:\n%s\nnaive:\n%s" q (pp_answers d) (pp_answers n))
    [
      "//person/tel";
      "//person/nm";
      "//person[tel='1111']/nm";
      "//person[contains(nm,'Jo')]/tel";
      "//addressbook[count(person)=2]/person/nm";
      "//addressbook/person[not(tel)]/nm";
      "/addressbook/person/tel";
    ]

(* ---- direct evaluator: support detection -------------------------------------- *)

let test_supported () =
  let supported q = Direct.supported (Imprecise.Xpath.Parser.parse_exn q) in
  check Alcotest.bool "paper Q1" true (supported {|//movie[.//genre="Horror"]/title|});
  check Alcotest.bool "paper Q2" true
    (supported {|//movie[some $d in .//director satisfies contains($d,"John")]/title|});
  (* widened fragment (PR 9): relative paths, descendant axes, nested
     positional predicates, trailing text() steps *)
  check Alcotest.bool "relative path" true (supported "movie/title");
  check Alcotest.bool "descendant axis" true (supported "/descendant::movie/title");
  check Alcotest.bool "nested positional" true (supported "//movie/title[1]");
  check Alcotest.bool "trailing text()" true (supported "//movie/title/text()");
  check Alcotest.bool "contains in predicate" true
    (supported {|//movie[contains(title,"x")]/title|});
  (* still rejected: non-paths, positional tests on the binder itself,
     upward axes and absolute paths inside predicates *)
  check Alcotest.bool "non-path" false (supported "1 + 2");
  check Alcotest.bool "leading positional predicate" false (supported "//movie[2]/title");
  check Alcotest.bool "leading position() call" false
    (supported "//movie[position()=1]/title");
  check Alcotest.bool "absolute path in predicate" false (supported "//movie[//x]/title");
  check Alcotest.bool "parent in predicate" false (supported "//movie[../x]/title")

let test_dispatcher_fallback () =
  (* Positional query: Auto must fall back to enumeration and agree with it. *)
  let q = "//person[1]/tel" in
  check Alcotest.string "strategy" "enumerate"
    (match Pquery.used_strategy fig2 q with `Direct -> "direct" | `Enumerate -> "enumerate");
  let auto = Pquery.rank fig2 q in
  let naive = Pquery.rank ~strategy:Pquery.Enumerate_only fig2 q in
  check Alcotest.bool "fallback agrees" true (answers_agree auto naive)

let test_direct_only_raises () =
  match Pquery.rank ~strategy:Pquery.Direct_only fig2 "//person[1]/tel" with
  | exception Pquery.Cannot_answer _ -> ()
  | _ -> Alcotest.fail "expected Cannot_answer"

let test_world_limit () =
  match Pquery.rank ~strategy:Pquery.Enumerate_only ~world_limit:1. fig2 "//person/tel" with
  | exception Pquery.Cannot_answer _ -> ()
  | _ -> Alcotest.fail "expected Cannot_answer on tiny world limit"

(* ---- direct vs naive: property test on random documents ------------------------ *)

let queries_for_property =
  [
    "//a";
    "//item/name";
    "//a[b]/c";
    "//a[contains(., 'x')]";
    "//item[name='hello']/b";
    "/a/b";
    "//name[. = 'x' or . = 'y']";
  ]

let prop_direct_equals_naive =
  let gen =
    QCheck.map
      (fun (seed, qi) ->
        let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
        (doc, List.nth queries_for_property (qi mod List.length queries_for_property)))
      QCheck.(pair int small_nat)
  in
  QCheck.Test.make ~name:"direct evaluation = world enumeration" ~count:150 gen
    (fun (doc, q) ->
      let expr = Imprecise.Xpath.Parser.parse_exn q in
      match Direct.rank_expr doc expr with
      | exception Direct.Unsupported _ -> QCheck.assume_fail ()
      | direct ->
          let naive = Naive.rank_expr doc expr in
          if answers_agree ~tolerance:1e-6 direct naive then true
          else
            QCheck.Test.fail_reportf "query %s:\ndirect:\n%s\nnaive:\n%s" q
              (pp_answers direct) (pp_answers naive))

let prop_direct_equals_naive_on_integrations =
  (* Random pairs of small documents, integrated, then queried. *)
  let gen =
    QCheck.map
      (fun (seed, qi) ->
        let rng = Prng.make seed in
        let a, rng = Random_docs.xml rng ~depth:2 in
        let b, _ = Random_docs.xml rng ~depth:2 in
        let retag t =
          match t with Tree.Element (_, at, c) -> Tree.Element ("r", at, c) | t -> t
        in
        (retag a, retag b, List.nth queries_for_property (qi mod List.length queries_for_property)))
      QCheck.(pair int small_nat)
  in
  QCheck.Test.make ~name:"direct = enumeration on integration results" ~count:80 gen
    (fun (a, b, q) ->
      let cfg =
        Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~max_possibilities:2000 ()
      in
      match Integrate.integrate cfg a b with
      | Error _ -> QCheck.assume_fail ()
      | Ok doc when Pxml.world_count doc > 20000. -> QCheck.assume_fail ()
      | Ok doc -> (
          let expr = Imprecise.Xpath.Parser.parse_exn q in
          match Direct.rank_expr doc expr with
          | exception Direct.Unsupported _ -> QCheck.assume_fail ()
          | direct -> answers_agree ~tolerance:1e-6 direct (Naive.rank_expr doc expr)))

(* ---- answer invariants on random documents ------------------------------------ *)

let random_doc_gen =
  QCheck.map
    (fun (seed, qi) ->
      let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
      (doc, List.nth queries_for_property (qi mod List.length queries_for_property)))
    QCheck.(pair int small_nat)

let prop_probabilities_in_unit_interval =
  QCheck.Test.make ~name:"answer probabilities lie in (0, 1]" ~count:150 random_doc_gen
    (fun (doc, q) ->
      List.for_all
        (fun (a : Answer.t) -> a.Answer.prob > 0. && a.Answer.prob <= 1. +. 1e-9)
        (Naive.rank doc q))

let prop_world_count_matches_enumeration =
  QCheck.Test.make ~name:"world_count = number of enumerated worlds" ~count:150
    QCheck.int (fun seed ->
      let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
      let n =
        Seq.fold_left (fun n _ -> n + 1) 0 (Imprecise.Worlds.enumerate doc)
      in
      float_of_int n = Pxml.world_count doc)

let prop_single_valued_mass_bounded =
  (* count() yields exactly one value per root; on single-rooted worlds the
     answer is a distribution over counts and its mass cannot exceed 1. *)
  QCheck.Test.make ~name:"single-valued query mass <= 1" ~count:150 QCheck.int
    (fun seed ->
      let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
      let single_rooted =
        Seq.for_all
          (fun (_, forest) -> List.length forest = 1)
          (Imprecise.Worlds.enumerate doc)
      in
      if not single_rooted then QCheck.assume_fail ()
      else
        let mass =
          List.fold_left
            (fun acc (a : Answer.t) -> acc +. a.Answer.prob)
            0.
            (Naive.rank doc "count(//a)")
        in
        mass <= 1. +. 1e-9)

(* ---- the top-k enumeration path ------------------------------------------------ *)

let prop_topk_is_reference_head =
  QCheck.Test.make ~name:"top_k = head of full ranking" ~count:60 random_doc_gen
    (fun (doc, q) ->
      let full = Naive.rank doc q in
      List.for_all
        (fun k ->
          answers_agree
            (Naive.rank ~top_k:k doc q)
            (List.filteri (fun i _ -> i < k) full))
        [ 1; 2; 5 ])

(* Top-k must stop early whatever the planner's world bound, so this
   document sits past 100k worlds: 17 independent dists give 2^17. The
   first twelve are near-certain, so the first 32 worlds carry all but
   ~1e-11 of the mass and top-1 is settled at the first check. *)
let test_topk_stops_early_on_a_large_doc () =
  let module Metrics = Imprecise.Obs.Metrics in
  let doc =
    Pxml.certain
      [
        Pxml.elem "r"
          (List.init 17 (fun i ->
               let p = if i < 12 then 1. -. 1e-12 else 0.9 in
               Pxml.dist
                 [
                   Pxml.choice ~prob:p
                     [ Pxml.Elem ("v", [], [ Pxml.certain [ Pxml.Text (string_of_int i) ] ]) ];
                   Pxml.choice ~prob:(1. -. p) [];
                 ]))
      ]
  in
  check (Alcotest.float 0.) "2^17 worlds" 131_072. (Pxml.world_count doc);
  let worlds = Metrics.counter "pquery.worlds_enumerated" in
  let early = Metrics.counter "pquery.topk_early_stops" in
  let worlds0 = Metrics.count worlds and early0 = Metrics.count early in
  let answers = Pquery.rank ~top_k:1 doc "count(//r/v)" in
  check Alcotest.int "one early stop" (early0 + 1) (Metrics.count early);
  let walked = Metrics.count worlds - worlds0 in
  check Alcotest.bool (Printf.sprintf "walked %d < 1000 worlds" walked) true (walked < 1000);
  match answers with
  | [ a ] ->
      check Alcotest.string "top value" "17" a.Answer.value;
      check (Alcotest.float 1e-9) "top probability" (0.9 ** 5.) a.Answer.prob
  | _ -> Alcotest.fail "top_k = 1 must return one answer"

let test_cache_hit_and_invalidation () =
  let store = Imprecise.Store.create () in
  Imprecise.Store.put store "fig2" (Imprecise.Store.Probabilistic fig2);
  let q = "//person/tel" in
  let r1 = Result.get_ok (Imprecise.query_store store "fig2" q) in
  let hits = Imprecise.Obs.Metrics.counter "pquery.cache.hit" in
  let before = Imprecise.Obs.Metrics.count hits in
  let r2 = Result.get_ok (Imprecise.query_store store "fig2" q) in
  check Alcotest.int "second query is a hit" (before + 1) (Imprecise.Obs.Metrics.count hits);
  check Alcotest.bool "hit returns the same answer" true (answers_agree r1 r2);
  (* a put of the same name moves the generation: the next query recomputes *)
  Imprecise.Store.put store "fig2" (Imprecise.Store.Probabilistic fig2);
  let before = Imprecise.Obs.Metrics.count hits in
  let r3 = Result.get_ok (Imprecise.query_store store "fig2" q) in
  check Alcotest.int "after put: not a hit" before (Imprecise.Obs.Metrics.count hits);
  check Alcotest.bool "recomputed answer agrees" true (answers_agree r1 r3);
  match Imprecise.query_store store "missing" q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error for a missing document"

let test_lru_eviction () =
  let cache = Imprecise_pquery.Cache.create ~capacity:2 () in
  let key n = Imprecise_pquery.Cache.key ~collection:"c" ~generation:n ~variant:"v" ~query:"q" in
  Imprecise_pquery.Cache.add cache (key 1) [];
  Imprecise_pquery.Cache.add cache (key 2) [];
  ignore (Imprecise_pquery.Cache.find cache (key 1));
  Imprecise_pquery.Cache.add cache (key 3) [];
  (* key 2 was least recently used and must be the one evicted *)
  check Alcotest.bool "key 1 kept" true (Imprecise_pquery.Cache.find cache (key 1) <> None);
  check Alcotest.bool "key 2 evicted" true (Imprecise_pquery.Cache.find cache (key 2) = None);
  check Alcotest.bool "key 3 kept" true (Imprecise_pquery.Cache.find cache (key 3) <> None);
  check Alcotest.int "capacity respected" 2 (Imprecise_pquery.Cache.length cache)

(* Regression: the old separator-joined key ("c#g1#v#q") was not injective
   when a field contained the separator — these two entries collided, so a
   cached answer for one query could be served for a different one. The
   length-prefixed key must keep them distinct. *)
let test_key_injective () =
  let k1 = Imprecise_pquery.Cache.key ~collection:"c" ~generation:1 ~variant:"v" ~query:"x#g1#v#x" in
  let k2 = Imprecise_pquery.Cache.key ~collection:"c#g1#v#x" ~generation:1 ~variant:"v" ~query:"x" in
  check Alcotest.bool "fields containing '#' no longer collide" true (k1 <> k2);
  (* a few more adversarial splits of the same rendered text *)
  let k3 = Imprecise_pquery.Cache.key ~collection:"a#g2" ~generation:3 ~variant:"" ~query:"q" in
  let k4 = Imprecise_pquery.Cache.key ~collection:"a" ~generation:2 ~variant:"#g3#" ~query:"q" in
  check Alcotest.bool "generation cannot migrate between fields" true (k3 <> k4);
  let k5 = Imprecise_pquery.Cache.key ~collection:"c" ~generation:1 ~variant:"v#1:q" ~query:"" in
  let k6 = Imprecise_pquery.Cache.key ~collection:"c" ~generation:1 ~variant:"v" ~query:"q" in
  check Alcotest.bool "variant/query boundary is unambiguous" true (k5 <> k6);
  (* identical fields still produce identical keys *)
  check Alcotest.string "key is deterministic" k1
    (Imprecise_pquery.Cache.key ~collection:"c" ~generation:1 ~variant:"v" ~query:"x#g1#v#x")

(* ---- the paper's demo queries (§VI) ---------------------------------------------- *)

let query_doc =
  lazy
    (let wl = Workloads.confusing () in
     let rules = Rulesets.movie ~genre:true ~title:true ~director:true () in
     let cfg =
       Integrate.config ~oracle:rules.oracle ~reconcile:rules.reconcile ~dtd:wl.dtd ()
     in
     match Integrate.integrate cfg (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl) with
     | Ok doc -> doc
     | Error _ -> assert false)

let test_q1_horror () =
  let answers =
    Pquery.rank (Lazy.force query_doc) {|//movie[.//genre="Horror"]/title|}
  in
  (* Exactly the two Jaws movies, with very high probability — the paper
     reports 97% for both. *)
  match answers with
  | [ a; b ] ->
      check Alcotest.(list string) "the two horror titles" [ "Jaws"; "Jaws 2" ]
        (List.sort String.compare [ a.Answer.value; b.Answer.value ]);
      List.iter
        (fun (x : Answer.t) ->
          check Alcotest.bool (x.value ^ " is near-certain") true (x.prob > 0.85))
        answers
  | l -> Alcotest.failf "expected exactly two answers, got %s" (pp_answers l)

let test_q2_john () =
  let answers =
    Pquery.rank (Lazy.force query_doc)
      {|//movie[some $d in .//director satisfies contains($d,"John")]/title|}
  in
  let prob v =
    match List.find_opt (fun (a : Answer.t) -> a.Answer.value = v) answers with
    | Some a -> a.Answer.prob
    | None -> 0.
  in
  check Alcotest.bool "Die Hard: With a Vengeance certain" true
    (prob "Die Hard: With a Vengeance" > 0.99);
  check Alcotest.bool "Mission: Impossible II near-certain" true
    (prob "Mission: Impossible II" > 0.9);
  let mi = prob "Mission: Impossible" in
  check Alcotest.bool "Mission: Impossible low but possible (the II typo)" true
    (mi > 0.01 && mi < 0.5)

let test_q1_q2_strategies_agree () =
  let doc = Lazy.force query_doc in
  List.iter
    (fun q ->
      let d = Pquery.rank ~strategy:Pquery.Direct_only doc q in
      let n = Pquery.rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q in
      if not (answers_agree ~tolerance:1e-6 d n) then
        Alcotest.failf "%s disagrees:\ndirect:\n%s\nnaive:\n%s" q (pp_answers d) (pp_answers n))
    [
      {|//movie[.//genre="Horror"]/title|};
      {|//movie[some $d in .//director satisfies contains($d,"John")]/title|};
    ]

let test_query_battery_on_movies () =
  (* A broad battery over the real confusing-integration document: the
     direct evaluator must agree with enumeration wherever it applies. *)
  let doc = Lazy.force query_doc in
  List.iter
    (fun q ->
      let n = Pquery.rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q in
      match Pquery.rank ~strategy:Pquery.Direct_only doc q with
      | d ->
          if not (answers_agree ~tolerance:1e-6 d n) then
            Alcotest.failf "%s disagrees:\ndirect:\n%s\nnaive:\n%s" q (pp_answers d)
              (pp_answers n)
      | exception Pquery.Cannot_answer _ ->
          (* outside the direct class: enumeration alone must still work *)
          Alcotest.(check bool) (q ^ " enumerable") true (List.length n >= 0))
    [
      "//movie/title";
      "//movie/year";
      "//movie[year=1975]/title";
      "//movie[year>1990]/title";
      {|//movie[genre="Action"]/title|};
      {|//movie[contains(title, "Die")]/director|};
      {|//movie[count(genre)=2]/title|};
      {|//movie[not(genre)]/title|};
      {|//movie[starts-with(title, "Mission")]/year|};
      {|//movie[some $g in genre satisfies $g = "Adventure"]/title|};
      "//movies[count(movie) > 10]/movie[1]/title";
      {|//movie[title = "Jaws"]//director|};
    ]

let test_sample_agrees_coarsely () =
  let doc = Lazy.force query_doc in
  let exact = Pquery.rank doc {|//movie[.//genre="Horror"]/title|} in
  let approx =
    Pquery.rank ~strategy:(Pquery.Sample { n = 3000; seed = 11 }) doc
      {|//movie[.//genre="Horror"]/title|}
  in
  List.iter
    (fun (a : Answer.t) ->
      let p =
        match List.find_opt (fun (x : Answer.t) -> x.value = a.value) approx with
        | Some x -> x.prob
        | None -> 0.
      in
      Alcotest.(check bool) (a.value ^ " within sampling error") true (Float.abs (p -. a.prob) < 0.05))
    exact

let test_explain () =
  let e = Pquery.explain ~k:3 fig2 "//person/tel" "2222" in
  check (Alcotest.float 1e-9) "probability" 0.75 e.Pquery.prob;
  check (Alcotest.float 1e-9) "full mass covered" 1. e.Pquery.covered;
  check Alcotest.int "two supporting worlds" 2 (List.length e.Pquery.supporting);
  check Alcotest.int "one opposing world" 1 (List.length e.Pquery.opposing);
  (* mass of supporting worlds equals the probability when coverage is full *)
  let mass = List.fold_left (fun acc (p, _) -> acc +. p) 0. e.Pquery.supporting in
  check (Alcotest.float 1e-9) "mass consistent" e.Pquery.prob mass;
  (* an impossible value has no supporting worlds *)
  let none = Pquery.explain ~k:3 fig2 "//person/tel" "9999" in
  check (Alcotest.float 1e-9) "impossible" 0. none.Pquery.prob;
  check Alcotest.int "no support" 0 (List.length none.Pquery.supporting)

let test_explain_partial_coverage () =
  (* On the big query document, k=4 covers only part of the mass and says
     so. *)
  let doc = Lazy.force query_doc in
  let e = Pquery.explain ~k:4 doc {|//movie[.//genre="Horror"]/title|} "Jaws" in
  check Alcotest.bool "partial coverage" true (e.Pquery.covered < 1.);
  check Alcotest.int "k worlds" 4
    (List.length e.Pquery.supporting + List.length e.Pquery.opposing);
  check Alcotest.bool "Jaws is near-certain" true (e.Pquery.prob > 0.99)

let test_paper_answers_pinned () =
  (* Regression pins for the §VI reproduction: the workloads are
     deterministic, so these probabilities only move if the algorithm
     does. Tolerances allow harmless numeric drift. *)
  let doc = Lazy.force query_doc in
  let pin answers (value, expected, tol) =
    let p =
      match List.find_opt (fun (a : Answer.t) -> a.Answer.value = value) answers with
      | Some a -> a.Answer.prob
      | None -> 0.
    in
    if Float.abs (p -. expected) > tol then
      Alcotest.failf "%s: expected %.3f±%.3f, got %.3f" value expected tol p
  in
  let a1 = Pquery.rank doc {|//movie[.//genre="Horror"]/title|} in
  List.iter (pin a1) [ ("Jaws", 1.0, 0.01); ("Jaws 2", 0.98, 0.03) ];
  check Alcotest.int "Q1 has exactly two answers" 2 (List.length a1);
  let a2 =
    Pquery.rank doc {|//movie[some $d in .//director satisfies contains($d,"John")]/title|}
  in
  List.iter (pin a2)
    [
      ("Die Hard: With a Vengeance", 1.0, 0.01);
      ("Mission: Impossible II", 0.98, 0.03);
      ("Mission: Impossible", 0.08, 0.06);
    ]

let test_rank_on_certain_equals_plain_query () =
  (* On a certain document, probabilistic ranking degenerates to the plain
     query with probability 1 everywhere. *)
  let tree =
    Imprecise.parse_xml_exn
      "<movies><movie><title>Jaws</title><genre>Horror</genre></movie><movie><title>Heat</title><genre>Crime</genre></movie></movies>"
  in
  let doc = Pxml.doc_of_tree tree in
  List.iter
    (fun q ->
      let ranked = Pquery.rank doc q in
      let plain = List.sort_uniq String.compare (Imprecise.query_certain tree q) in
      check Alcotest.(list string) (q ^ " values") plain
        (List.sort String.compare (List.map (fun (a : Answer.t) -> a.Answer.value) ranked));
      List.iter (fun (a : Answer.t) -> check (Alcotest.float 1e-9) a.value 1. a.prob) ranked)
    [ "//movie/title"; {|//movie[genre="Horror"]/title|}; "//movie/genre" ]

(* Regression: a cached rank call whose budget trips mid-enumeration must
   not populate the cache with whatever it had accumulated — the next call
   would serve a truncated ranking as if it were the document's answer.
   Exceptions must leave the cache exactly as it was. *)
let test_cancelled_query_cannot_poison_cache () =
  let module Budget = Imprecise.Resilience.Budget in
  let module Cache = Imprecise_pquery.Cache in
  (* 2^12 worlds: plenty to be mid-flight when a 40-world budget trips *)
  let doc =
    Pxml.certain
      [
        Pxml.elem "r"
          (List.init 12 (fun i ->
               Pxml.dist
                 [
                   Pxml.choice ~prob:0.5
                     [ Pxml.Elem ("v", [], [ Pxml.certain [ Pxml.Text (string_of_int i) ] ]) ];
                   Pxml.choice ~prob:0.5 [];
                 ]))
      ]
  in
  let query = "//r/v" in
  let len0 = Cache.length Cache.global in
  let budget = Budget.create ~max_worlds:40 () in
  (match
     Pquery.rank ~budget ~strategy:Pquery.Enumerate_only ~cache:("poison-test", 1) doc
       query
   with
  | _ -> Alcotest.fail "40 worlds cannot enumerate 2^12"
  | exception Budget.Exceeded _ -> ());
  check Alcotest.int "tripped query left the cache untouched" len0
    (Cache.length Cache.global);
  (* the same key, uncancelled: a full recomputation (no hit), and the
     answer must be the exact ranking, not a cancelled run's leftovers *)
  let hits = Imprecise.Obs.Metrics.counter "pquery.cache.hit" in
  let hits0 = Imprecise.Obs.Metrics.count hits in
  let answers =
    Pquery.rank ~strategy:Pquery.Enumerate_only ~cache:("poison-test", 1) doc query
  in
  check Alcotest.int "recomputed, not served from cache" hits0
    (Imprecise.Obs.Metrics.count hits);
  check Alcotest.bool "recomputed answer is the exact ranking" true
    (answers_agree answers (Pquery.rank ~strategy:Pquery.Enumerate_only doc query))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let s name f = Alcotest.test_case name `Slow f in
  let q p = QCheck_alcotest.to_alcotest p in
  [
    ( "pquery.answers",
      [ t "ranking order" test_rank_orders; t "of_prob_map merges" test_of_prob_map_merges ] );
    ( "pquery.fig2",
      [
        t "phone probabilities" test_fig2_tel_probabilities;
        t "certain name" test_fig2_nm_certain;
        t "count predicate" test_fig2_count_predicate;
        t "direct = enumeration on a query battery" test_strategies_agree_fig2;
      ] );
    ( "pquery.direct",
      [
        t "supported query class" test_supported;
        t "dispatcher falls back" test_dispatcher_fallback;
        t "Direct_only raises on unsupported" test_direct_only_raises;
        t "world limit enforced" test_world_limit;
        q prop_direct_equals_naive;
        q prop_direct_equals_naive_on_integrations;
      ] );
    ( "pquery.invariants",
      [
        q prop_probabilities_in_unit_interval;
        q prop_world_count_matches_enumeration;
        q prop_single_valued_mass_bounded;
      ] );
    ( "pquery.scale",
      [
        q prop_topk_is_reference_head;
        t "top_k stops early past 100k worlds" test_topk_stops_early_on_a_large_doc;
        t "cache hits and generation invalidation" test_cache_hit_and_invalidation;
        t "LRU eviction order" test_lru_eviction;
        t "composite key is injective" test_key_injective;
        t "cancelled queries cannot poison the cache" test_cancelled_query_cannot_poison_cache;
      ] );
    ( "pquery.paper",
      [
        t "Q1: horror movies" test_q1_horror;
        t "Q2: movies directed by a John" test_q2_john;
        s "Q1/Q2: evaluators agree" test_q1_q2_strategies_agree;
        s "broad query battery agrees" test_query_battery_on_movies;
        t "explanations" test_explain;
        t "paper answers pinned (regression)" test_paper_answers_pinned;
        t "certain documents rank like plain queries" test_rank_on_certain_equals_plain_query;
        s "explanations with partial coverage" test_explain_partial_coverage;
        s "sampling agrees within error" test_sample_agrees_coarsely;
      ] );
  ]
