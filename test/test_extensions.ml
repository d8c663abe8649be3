(* Tests for the extension features: XQuery-lite (for/let/if, constructors),
   the extra axes and sequence functions, Monte-Carlo world sampling, lossy
   compaction, and incremental integration of additional sources. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Compact = Imprecise.Compact
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Blocking = Imprecise.Blocking
module Pquery = Imprecise.Pquery
module Answer = Imprecise.Answer
module Quality = Imprecise.Quality
module Addressbook = Imprecise.Data.Addressbook
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Eval = Imprecise.Xpath.Eval

let check = Alcotest.check

let doc =
  Imprecise.parse_xml_exn
    {|<movies>
        <movie><title>Jaws</title><year>1975</year><genre>Horror</genre></movie>
        <movie><title>Jaws 2</title><year>1978</year><genre>Horror</genre></movie>
        <movie><title>Mission: Impossible II</title><year>2000</year><genre>Action</genre></movie>
      </movies>|}

let q query = Imprecise.query_certain doc query

let check_q query expected () = check Alcotest.(list string) query expected (q query)

let check_s query expected () =
  check Alcotest.string query expected (Eval.eval_string doc query)

let check_n query expected () =
  check (Alcotest.float 1e-9) query expected (Eval.eval_number doc query)

(* ---- new axes ---------------------------------------------------------------- *)

let suite_axes =
  [
    ( "ancestor",
      check_q "//genre[.='Action']/ancestor::movie/title" [ "Mission: Impossible II" ] );
    ("ancestor-or-self keeps self", check_q "//movie[1]/ancestor-or-self::*[1]/title" [ "Jaws" ]);
    (* //genre[1] selects the first genre of EACH movie: 3 nodes, whose
       ancestors are the 3 movies plus the shared movies element *)
    ("ancestor over several contexts", check_n "count(//genre[1]/ancestor::*)" 4.);
    ("ancestor reaches the root", check_n "count((//genre)[1]/ancestor::*)" 2.);
    ( "following-sibling",
      check_q "//movie[1]/following-sibling::movie/title" [ "Jaws 2"; "Mission: Impossible II" ] );
    ("preceding-sibling", check_q "//movie[3]/preceding-sibling::movie/title" [ "Jaws"; "Jaws 2" ]);
    ("siblings within an element", check_q "//movie[1]/title/following-sibling::year" [ "1975" ]);
    ("no preceding for first", check_n "count(//movie[1]/preceding-sibling::movie)" 0.);
  ]

(* ---- new functions -------------------------------------------------------------- *)

let suite_functions =
  [
    ("min", check_n "min(//year)" 1975.);
    ("max", check_n "max(//year)" 2000.);
    ("avg", check_n "avg(//year)" ((1975. +. 1978. +. 2000.) /. 3.));
    ("min of empty is NaN", fun () -> check Alcotest.bool "nan" true (Float.is_nan (Eval.eval_number doc "min(//nope)")));
    ("string-join", check_s "string-join(//movie/genre, '+')" "Horror+Horror+Action");
    ("distinct-values", check_n "count(distinct-values(//genre))" 2.);
    ("exists", check_s "string(exists(//movie))" "true");
    ("empty", check_s "string(empty(//nope))" "true");
  ]

(* ---- XQuery-lite ------------------------------------------------------------------ *)

let suite_flwor =
  [
    ("let", check_n "let $y := 1975 return count(//movie[year > $y])" 2.);
    ("nested let", check_n "let $a := 1 return let $b := 2 return $a + $b" 3.);
    ("if then else", check_s "if (count(//movie) > 2) then 'many' else 'few'" "many");
    ("if other branch", check_s "if (false()) then 'x' else 'y'" "y");
    ("for over nodes", check_q "for $m in //movie return $m/title"
       [ "Jaws"; "Jaws 2"; "Mission: Impossible II" ]);
    ( "for with predicate body",
      check_q "for $m in //movie return $m/genre[. = 'Horror']" [ "Horror"; "Horror" ] );
    ( "for with where clause",
      check_q "for $m in //movie where $m/year > 1976 return $m/title"
        [ "Jaws 2"; "Mission: Impossible II" ] );
    ( "where referencing outer let",
      check_n "let $y := 1978 return count(for $m in //movie where $m/year = $y return $m)" 1. );
    ("for + let combined", check_n
       "count(for $m in //movie return (let $g := $m/genre return $m/title[$g = 'Horror']))" 2.);
  ]

let test_element_ctor () =
  match Eval.eval doc (Imprecise.Xpath.Parser.parse_exn "element summary { count(//movie), text { ' movies' } }") with
  | Eval.Nodeset [ Eval.Node n ] ->
      check Alcotest.string "constructed" "<summary>3 movies</summary>"
        (Imprecise.Xml.Printer.to_string n.Eval.tree)
  | _ -> Alcotest.fail "expected one constructed node"

let test_for_restructure () =
  (* The classic restructuring FLWOR: wrap each title in a new element. *)
  let expr =
    Imprecise.Xpath.Parser.parse_exn "for $m in //movie return element entry { $m/title }"
  in
  match Eval.eval doc expr with
  | Eval.Nodeset items ->
      check Alcotest.int "three entries" 3 (List.length items);
      let first =
        match items with Eval.Node n :: _ -> Imprecise.Xml.Printer.to_string n.Eval.tree | _ -> ""
      in
      check Alcotest.string "shape" "<entry><title>Jaws</title></entry>" first
  | _ -> Alcotest.fail "expected a node-set"

let test_ctor_with_attribute () =
  let expr =
    Imprecise.Xpath.Parser.parse_exn "element m { //movie[1]/@*, //movie[1]/title }"
  in
  match Eval.eval doc expr with
  | Eval.Nodeset [ Eval.Node n ] ->
      check Alcotest.string "no attrs on source, title copied" "<m><title>Jaws</title></m>"
        (Imprecise.Xml.Printer.to_string n.Eval.tree)
  | _ -> Alcotest.fail "expected one node"

let test_flwor_roundtrip () =
  List.iter
    (fun src ->
      match Imprecise.Xpath.Parser.parse src with
      | Error e -> Alcotest.failf "parse %S: %s" src e
      | Ok ast -> (
          match Imprecise.Xpath.Parser.parse (Imprecise.Xpath.Ast.to_string ast) with
          | Error e -> Alcotest.failf "reparse of %S failed: %s" src e
          | Ok ast2 ->
              check Alcotest.string "stable" (Imprecise.Xpath.Ast.to_string ast)
                (Imprecise.Xpath.Ast.to_string ast2)))
    [
      "for $m in //movie return $m/title";
      "for $m in //movie where $m/year > 1976 return $m/title";
      "let $x := 1 return $x + 1";
      "if (//a) then 'x' else 'y'";
      "element e { text { 'x' }, //a }";
    ]

(* ---- probabilistic queries still agree with new machinery -------------------------- *)

let fig2 =
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd ()
  in
  Result.get_ok (Integrate.integrate cfg Addressbook.source_a Addressbook.source_b)

let test_flwor_on_probabilistic () =
  (* FLWOR queries run through the enumeration evaluator. *)
  let answers =
    Pquery.rank ~strategy:Pquery.Enumerate_only fig2 "for $p in //person return $p/tel"
  in
  check Alcotest.int "two phones" 2 (List.length answers);
  List.iter (fun (a : Answer.t) -> check (Alcotest.float 1e-9) a.value 0.75 a.prob) answers

(* ---- sampling ----------------------------------------------------------------------- *)

let test_sample_unbiased () =
  (* On Figure 2, P(1111 in answer) = 0.75; a 4000-sample estimate must land
     within a few standard deviations (σ ≈ 0.0068). *)
  let answers = Pquery.rank ~strategy:(Pquery.Sample { n = 4000; seed = 7 }) fig2 "//person/tel" in
  let p v =
    match List.find_opt (fun (a : Answer.t) -> a.value = v) answers with
    | Some a -> a.prob
    | None -> 0.
  in
  check Alcotest.bool "1111 near 0.75" true (Float.abs (p "1111" -. 0.75) < 0.04);
  check Alcotest.bool "2222 near 0.75" true (Float.abs (p "2222" -. 0.75) < 0.04)

let test_sample_deterministic () =
  let a = Pquery.rank ~strategy:(Pquery.Sample { n = 100; seed = 3 }) fig2 "//person/tel" in
  let b = Pquery.rank ~strategy:(Pquery.Sample { n = 100; seed = 3 }) fig2 "//person/tel" in
  check Alcotest.bool "same seed same estimate" true (Answer.equal a b)

let test_sample_probability_product () =
  (* Each sampled world's probability is a genuine world probability. *)
  let (p, forest), _ = Worlds.sample (Prng.make 5) fig2 in
  check Alcotest.bool "prob positive" true (p > 0. && p <= 1.);
  check Alcotest.int "one root" 1 (List.length forest)

let prop_sampled_worlds_are_possible =
  let gen = QCheck.map (fun seed -> fst (Random_docs.pxml (Prng.make seed) ~depth:2)) QCheck.int in
  QCheck.Test.make ~name:"sampled worlds are possible worlds" ~count:50 gen (fun doc ->
      let worlds = Worlds.merged doc in
      let samples, _ = Worlds.sample_many ~n:20 (Prng.make 17) doc in
      List.for_all
        (fun (_, forest) ->
          let canon = List.map Tree.canonical forest in
          List.exists (fun (_, w) -> List.equal Tree.deep_equal canon w) worlds)
        samples)

(* ---- k-best worlds ------------------------------------------------------------------ *)

let test_most_likely_fig2 () =
  match Worlds.most_likely ~k:2 fig2 with
  | [ (p1, _); (p2, _) ] ->
      check (Alcotest.float 1e-9) "best" 0.5 p1;
      check (Alcotest.float 1e-9) "second" 0.25 p2
  | l -> Alcotest.failf "expected 2 worlds, got %d" (List.length l)

let test_most_likely_beyond_space () =
  (* asking for more worlds than exist returns them all *)
  check Alcotest.int "all three" 3 (List.length (Worlds.most_likely ~k:10 fig2));
  check Alcotest.int "k=0" 0 (List.length (Worlds.most_likely ~k:0 fig2))

let test_most_likely_on_large_doc () =
  (* the confusing query document: k-best without enumeration *)
  let wl = Imprecise.Data.Workloads.confusing () in
  let rules = Imprecise.Rulesets.movie ~genre:true ~title:true ~director:true () in
  let doc =
    Result.get_ok
      (Imprecise.integrate ~rules ~dtd:wl.dtd
         (Imprecise.Data.Workloads.mpeg7_doc wl)
         (Imprecise.Data.Workloads.imdb_doc wl))
  in
  match Worlds.most_likely ~k:3 doc with
  | (p1, _) :: (p2, _) :: _ ->
      check Alcotest.bool "ordered" true (p1 >= p2);
      check Alcotest.bool "positive" true (p2 > 0.)
  | _ -> Alcotest.fail "expected worlds"

let prop_most_likely_matches_enumeration =
  let gen = QCheck.map (fun seed -> fst (Random_docs.pxml (Prng.make seed) ~depth:2)) QCheck.int in
  QCheck.Test.make ~name:"most_likely = top of the enumeration" ~count:80 gen (fun doc ->
      let k = 5 in
      let best = Worlds.most_likely ~k doc in
      let expected =
        List.filteri
          (fun i _ -> i < k)
          (List.sort
             (fun (p, _) (q, _) -> Float.compare q p)
             (List.of_seq (Worlds.enumerate doc)))
      in
      List.length best = List.length expected
      && List.for_all2 (fun (p, _) (q, _) -> Float.abs (p -. q) < 1e-9) best expected)

(* ---- lossy compaction ------------------------------------------------------------------ *)

let test_prune_unlikely_basic () =
  let d =
    Pxml.dist
      [
        Pxml.choice ~prob:0.9 [ Pxml.text "likely" ];
        Pxml.choice ~prob:0.08 [ Pxml.text "rare" ];
        Pxml.choice ~prob:0.02 [ Pxml.text "rarer" ];
      ]
  in
  let pruned = Compact.prune_unlikely ~threshold:0.05 d in
  check Alcotest.int "two left" 2 (List.length pruned.Pxml.choices);
  check Alcotest.bool "valid" true (Result.is_ok (Pxml.validate pruned));
  (* renormalised: 0.9/0.98 and 0.08/0.98 *)
  match pruned.Pxml.choices with
  | [ a; b ] ->
      check (Alcotest.float 1e-9) "renormalised" (0.9 /. 0.98) a.Pxml.prob;
      check (Alcotest.float 1e-9) "renormalised 2" (0.08 /. 0.98) b.Pxml.prob
  | _ -> Alcotest.fail "unexpected shape"

let test_prune_unlikely_keeps_best () =
  let d =
    Pxml.dist [ Pxml.choice ~prob:0.6 [ Pxml.text "a" ]; Pxml.choice ~prob:0.4 [ Pxml.text "b" ] ]
  in
  let pruned = Compact.prune_unlikely ~threshold:0.99 d in
  match pruned.Pxml.choices with
  | [ only ] ->
      check (Alcotest.float 1e-9) "certain" 1. only.Pxml.prob;
      check Alcotest.bool "kept the most likely" true (only.Pxml.nodes = [ Pxml.Text "a" ])
  | _ -> Alcotest.fail "expected a single choice"

let test_overpruning_reduces_recall () =
  (* The paper's warning, measured. With an asymmetric value conflict the
     2222 branch carries 0.3: pruning below 0.4 deletes it, and with it the
     only world in which the merged John has that phone — recall drops. *)
  let cfg =
    Integrate.config
      ~oracle:(Oracle.make [ Oracle.deep_equal_rule ])
      ~dtd:Addressbook.dtd
      ~value_conflict:(fun _ _ -> 0.7)
      ()
  in
  let doc =
    Result.get_ok (Integrate.integrate cfg Addressbook.source_a Addressbook.source_b)
  in
  let answers doc = Pquery.rank doc "//person/tel" in
  let truth = [ "2222" ] in
  let before = Quality.probabilistic_recall (answers doc) ~truth in
  let pruned = Compact.prune_unlikely ~threshold:0.4 doc in
  let after = Quality.probabilistic_recall (answers pruned) ~truth in
  check Alcotest.bool "recall of the pruned value drops" true (after < before);
  check Alcotest.bool "representation shrank" true
    (Pxml.node_count pruned < Pxml.node_count doc)

let prop_prune_unlikely_valid_and_smaller =
  let gen = QCheck.map (fun seed -> fst (Random_docs.pxml (Prng.make seed) ~depth:2)) QCheck.int in
  QCheck.Test.make ~name:"prune_unlikely output valid and no larger" ~count:80 gen
    (fun doc ->
      let pruned = Compact.prune_unlikely ~threshold:0.2 doc in
      Result.is_ok (Pxml.validate pruned)
      && Pxml.node_count pruned <= Pxml.node_count doc
      && Pxml.world_count pruned <= Pxml.world_count doc)

(* ---- incremental integration -------------------------------------------------------------- *)

let test_incremental_third_source () =
  (* A third address book arrives, confirming tel 1111: integrating it into
     the probabilistic state refines the distribution. *)
  let third =
    Imprecise.parse_xml_exn
      "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>"
  in
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd ()
  in
  match Integrate.integrate_incremental cfg fig2 third with
  | Error e -> Alcotest.failf "incremental failed: %a" Integrate.pp_error e
  | Ok doc ->
      check Alcotest.bool "valid" true (Result.is_ok (Pxml.validate doc));
      check Alcotest.bool "still uncertain" false (Pxml.is_certain doc);
      (* every world still satisfies the DTD *)
      List.iter
        (fun (_, forest) ->
          List.iter
            (fun w ->
              check Alcotest.bool "dtd in world" true
                (Result.is_ok (Imprecise.Dtd.validate Addressbook.dtd w)))
            forest)
        (Worlds.merged doc)

let test_incremental_equals_two_way_on_certain () =
  (* Folding into a certain document is exactly ordinary integration. *)
  let a = Imprecise.parse_xml_exn "<r><x>1</x></r>" in
  let b = Imprecise.parse_xml_exn "<r><x>2</x></r>" in
  let cfg = Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) () in
  let direct = Result.get_ok (Integrate.integrate cfg a b) in
  let incremental =
    Result.get_ok (Integrate.integrate_incremental cfg (Pxml.doc_of_tree a) b)
  in
  let worlds d = Worlds.merged d in
  check Alcotest.bool "same distribution" true
    (List.for_all2
       (fun (p, w) (q, v) -> Float.abs (p -. q) < 1e-9 && List.equal Tree.deep_equal w v)
       (worlds direct) (worlds incremental))

(* The fold's joint enumeration of touched choice points is still guarded,
   by [max_possibilities]: John's two telephone numbers in Fig. 2 are one
   touched choice point with two possibilities, over a limit of one. *)
let test_incremental_guard () =
  let third =
    Imprecise.parse_xml_exn
      "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>"
  in
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd
      ~max_possibilities:1 ()
  in
  match Integrate.integrate_incremental cfg fig2 third with
  | Error (Integrate.Too_large _) -> ()
  | _ -> Alcotest.fail "expected Too_large"

(* The prior world count does not limit a fold, only [max_possibilities]
   per touched group does: twelve keyed persons, each with a two-way
   number choice, make 4096 prior combinations. *)
let test_incremental_past_old_limit () =
  let book k =
    Tree.element "addressbook"
      (List.init 12 (fun i ->
           Tree.element "person"
             [ Tree.leaf "nm" (Printf.sprintf "P%d" i); Tree.leaf "tel" (Printf.sprintf "%d-%d" i k) ]))
  in
  let cfg =
    Integrate.config
      ~oracle:(Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ])
      ~dtd:Addressbook.dtd ()
  in
  let prior = Result.get_ok (Integrate.integrate cfg (book 0) (book 1)) in
  check (Alcotest.float 0.) "prior combinations" 4096. (Pxml.world_count prior);
  match Integrate.integrate_incremental cfg prior (book 2) with
  | Error e -> Alcotest.failf "fold failed: %a" Integrate.pp_error e
  | Ok doc ->
      check Alcotest.bool "valid" true (Result.is_ok (Pxml.validate doc));
      check
        Alcotest.(list (pair string (float 1e-9)))
        "P7's three numbers"
        [ ("7-2", 0.5); ("7-0", 0.25); ("7-1", 0.25) ]
        (List.map
           (fun (a : Imprecise.Answer.t) -> (a.value, a.prob))
           (Imprecise.rank doc "//person[nm='P7']/tel"))

(* ---- blocking --------------------------------------------------------------------- *)

let person_oracle =
  Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ]

let name_blocker = Blocking.key ~field:"nm" ()

let test_blocking_preserves_result () =
  (* The name-key rule and name blocking agree, so blocking must not change
     the result distribution. *)
  let a, b = Addressbook.larger 40 3 in
  let run blocker =
    let cfg = Integrate.config ~oracle:person_oracle ~dtd:Addressbook.dtd ~blocker () in
    match Integrate.integrate cfg a b with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "integration failed: %a" Integrate.pp_error e
  in
  let plain = run Blocking.All_pairs and blocked = run name_blocker in
  check Alcotest.int "same node count" (Pxml.node_count plain) (Pxml.node_count blocked);
  check (Alcotest.float 1e-6) "same world count" (Pxml.world_count plain)
    (Pxml.world_count blocked)

let test_blocking_scales () =
  (* 1000-person books integrate in well under a second with blocking. *)
  let a, b = Addressbook.larger 1000 9 in
  let cfg =
    Integrate.config ~oracle:person_oracle ~dtd:Addressbook.dtd ~blocker:name_blocker
      ~factorize:true ()
  in
  let t0 = Unix.gettimeofday () in
  match Integrate.integrate cfg a b with
  | Error e -> Alcotest.failf "integration failed: %a" Integrate.pp_error e
  | Ok doc ->
      let dt = Unix.gettimeofday () -. t0 in
      check Alcotest.bool "finished fast" true (dt < 5.);
      check Alcotest.bool "valid" true (Result.is_ok (Pxml.validate doc));
      check Alcotest.bool "big" true (Pxml.node_count doc > 5000)

let test_blocking_prunes_cross_block () =
  (* Different block keys never reach the Oracle: a spy rule observes. *)
  let calls = ref 0 in
  let spy =
    {
      Oracle.name = "spy";
      judge =
        (fun _ _ ->
          incr calls;
          Some Oracle.Different);
    }
  in
  let a = Imprecise.parse_xml_exn "<r><p><k>a</k></p><p><k>b</k></p></r>" in
  let b = Imprecise.parse_xml_exn "<r><p><k>c</k></p><p><k>a</k></p></r>" in
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ spy ]) ~blocker:(Blocking.key ~field:"k" ()) ()
  in
  (match Integrate.integrate cfg a b with Ok _ -> () | Error e -> Alcotest.failf "%a" Integrate.pp_error e);
  check Alcotest.int "only the same-key pair consulted" 1 !calls

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let ts l = List.map (fun (n, f) -> t n f) l in
  let qc p = QCheck_alcotest.to_alcotest p in
  [
    ("xpath.axes2", ts suite_axes);
    ("xpath.functions2", ts suite_functions);
    ( "xpath.flwor",
      ts suite_flwor
      @ [
          t "element constructor" test_element_ctor;
          t "restructuring for-return" test_for_restructure;
          t "constructor with attributes" test_ctor_with_attribute;
          t "pretty-print roundtrip" test_flwor_roundtrip;
          t "FLWOR over a probabilistic document" test_flwor_on_probabilistic;
        ] );
    ( "pquery.sample",
      [
        t "unbiased estimate" test_sample_unbiased;
        t "deterministic under a seed" test_sample_deterministic;
        t "sampled world sanity" test_sample_probability_product;
        qc prop_sampled_worlds_are_possible;
      ] );
    ( "pxml.most_likely",
      [
        t "figure-2 top worlds" test_most_likely_fig2;
        t "k beyond the world space" test_most_likely_beyond_space;
        t "k-best on a large document" test_most_likely_on_large_doc;
        qc prop_most_likely_matches_enumeration;
      ] );
    ( "pxml.prune_unlikely",
      [
        t "prunes and renormalises" test_prune_unlikely_basic;
        t "always keeps the most likely choice" test_prune_unlikely_keeps_best;
        t "over-pruning reduces recall (the paper's warning)" test_overpruning_reduces_recall;
        qc prop_prune_unlikely_valid_and_smaller;
      ] );
    ( "integrate.blocking",
      [
        t "blocking preserves the result when sound" test_blocking_preserves_result;
        t "1000-person integration under a second" test_blocking_scales;
        t "cross-block pairs never reach the oracle" test_blocking_prunes_cross_block;
      ] );
    ( "integrate.incremental",
      [
        t "third source refines the state" test_incremental_third_source;
        t "certain base = ordinary integration" test_incremental_equals_two_way_on_certain;
        t "world-limit guard" test_incremental_guard;
        t "past 1000 combinations" test_incremental_past_old_limit;
      ] );
  ]
