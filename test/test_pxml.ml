(* Tests for the probabilistic XML model: layering invariants, world
   enumeration, counting, compaction, and the XML encoding. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Compact = Imprecise.Compact
module Codec = Imprecise.Codec
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs

let check = Alcotest.check

let parse = Imprecise.parse_xml_exn

let random_doc seed = fst (Random_docs.pxml (Prng.make seed) ~depth:2)

let doc_gen = QCheck.map random_doc QCheck.int

(* Figure 2's example document, built by hand: an address book where the two
   Johns are the same person (with one of two phones) or two persons. *)
let fig2_doc =
  let person tel =
    Pxml.elem "person"
      [
        Pxml.certain [ Pxml.elem "nm" [ Pxml.certain [ Pxml.text "John" ] ] ];
        tel;
      ]
  in
  let tel v = Pxml.elem "tel" [ Pxml.certain [ Pxml.text v ] ] in
  let certain_tel v = Pxml.certain [ tel v ] in
  let uncertain_tel =
    Pxml.dist [ Pxml.choice ~prob:0.5 [ tel "1111" ]; Pxml.choice ~prob:0.5 [ tel "2222" ] ]
  in
  Pxml.certain
    [
      Pxml.elem "addressbook"
        [
          Pxml.dist
            [
              Pxml.choice ~prob:0.5 [ person uncertain_tel ];
              Pxml.choice ~prob:0.5 [ person (certain_tel "1111"); person (certain_tel "2222") ];
            ];
        ];
    ]

(* ---- construction and validation ----------------------------------------- *)

let test_dist_validation () =
  (match Pxml.dist [] with
  | exception Pxml.Invalid _ -> ()
  | _ -> Alcotest.fail "empty dist accepted");
  (match Pxml.dist [ Pxml.choice ~prob:0.7 [] ] with
  | exception Pxml.Invalid _ -> ()
  | _ -> Alcotest.fail "sum 0.7 accepted");
  (match Pxml.dist [ Pxml.choice ~prob:1.5 []; Pxml.choice ~prob:(-0.5) [] ] with
  | exception Pxml.Invalid _ -> ()
  | _ -> Alcotest.fail "out-of-range probability accepted");
  (match Pxml.dist [ Pxml.choice ~prob:Float.nan []; Pxml.choice ~prob:1. [] ] with
  | exception Pxml.Invalid _ -> ()
  | _ -> Alcotest.fail "NaN probability accepted");
  match Pxml.dist [ Pxml.choice ~prob:0.25 []; Pxml.choice ~prob:0.75 [ Pxml.text "x" ] ] with
  | _ -> ()

let test_validate_deep () =
  let bad =
    Pxml.dist_unchecked
      [ { Pxml.prob = 1.; nodes = [ Pxml.Elem ("a", [], [ Pxml.dist_unchecked [ { Pxml.prob = 0.4; nodes = [] } ] ]) ] } ]
  in
  check Alcotest.bool "nested invalid detected" true (Result.is_error (Pxml.validate bad));
  check Alcotest.bool "fig2 valid" true (Result.is_ok (Pxml.validate fig2_doc))

let test_of_tree_roundtrip () =
  let t = parse "<r><a>x</a><b/>tail</r>" in
  let doc = Pxml.doc_of_tree t in
  check Alcotest.bool "certain" true (Pxml.is_certain doc);
  match Pxml.to_tree_exn doc with
  | [ t' ] -> check Alcotest.bool "same tree" true (Tree.deep_equal t t')
  | _ -> Alcotest.fail "expected one root"

let test_to_tree_exn_uncertain () =
  match Pxml.to_tree_exn fig2_doc with
  | exception Pxml.Invalid _ -> ()
  | _ -> Alcotest.fail "uncertain document extracted"

let test_is_certain_nested () =
  let deep_uncertain =
    Pxml.certain
      [ Pxml.elem "a" [ Pxml.dist [ Pxml.choice ~prob:0.5 []; Pxml.choice ~prob:0.5 [ Pxml.text "x" ] ] ] ]
  in
  check Alcotest.bool "nested uncertainty detected" false (Pxml.is_certain deep_uncertain)

(* ---- statistics ----------------------------------------------------------- *)

let test_stats_fig2 () =
  let s = Pxml.stats fig2_doc in
  (* Hand count: root prob/poss (1/1); addressbook's person-level prob with
     2 poss; merged-person branch: 4 elems (person, nm, 2×tel), 3 texts,
     5 prob + 6 poss (two certain wrappers, nm text, tel choice, 2 tel
     texts); two-person branch: 6 elems, 4 texts, 8 prob + 8 poss. *)
  check Alcotest.int "prob nodes" 15 s.Pxml.prob_nodes;
  check Alcotest.int "poss nodes" 17 s.Pxml.poss_nodes;
  check Alcotest.int "elements" 11 s.Pxml.elements;
  check Alcotest.int "texts" 7 s.Pxml.texts;
  check Alcotest.int "total" 50 (Pxml.node_count fig2_doc)

let test_world_count_fig2 () =
  check (Alcotest.float 1e-9) "combinations" 3. (Pxml.world_count fig2_doc);
  check Alcotest.(option int) "exact" (Some 3) (Pxml.world_count_int fig2_doc)

let test_world_count_multiplies () =
  let two = Pxml.dist [ Pxml.choice ~prob:0.5 [ Pxml.text "a" ]; Pxml.choice ~prob:0.5 [ Pxml.text "b" ] ] in
  let doc = Pxml.certain [ Pxml.elem "r" [ two; two; two ] ] in
  check (Alcotest.float 1e-9) "independent choices multiply" 8. (Pxml.world_count doc)

(* ---- worlds ---------------------------------------------------------------- *)

let test_fig2_worlds () =
  let worlds = Worlds.merged fig2_doc in
  check Alcotest.int "three worlds" 3 (List.length worlds);
  let probs = List.map fst worlds in
  check (Alcotest.float 1e-9) "total" 1. (List.fold_left ( +. ) 0. probs);
  match worlds with
  | (p0, w0) :: rest ->
      check (Alcotest.float 1e-9) "two-person world" 0.5 p0;
      (match w0 with
      | [ book ] -> check Alcotest.int "two persons" 2 (List.length (Tree.children book))
      | _ -> Alcotest.fail "one root expected");
      List.iter (fun (p, _) -> check (Alcotest.float 1e-9) "quarter" 0.25 p) rest
  | [] -> Alcotest.fail "no worlds"

let test_certain_single_world () =
  let t = parse "<r><a>x</a></r>" in
  match Worlds.merged (Pxml.doc_of_tree t) with
  | [ (p, [ w ]) ] ->
      check (Alcotest.float 1e-9) "prob 1" 1. p;
      check Alcotest.bool "same" true (Tree.deep_equal t w)
  | _ -> Alcotest.fail "expected exactly one world"

let prop_world_probabilities_sum_to_one =
  QCheck.Test.make ~name:"world probabilities sum to 1" ~count:100 doc_gen (fun doc ->
      Float.abs (Worlds.total_probability doc -. 1.) < 1e-6)

let prop_world_count_matches_enumeration =
  QCheck.Test.make ~name:"world_count = length of enumeration" ~count:100 doc_gen
    (fun doc ->
      let counted = Pxml.world_count doc in
      let enumerated = Seq.fold_left (fun n _ -> n + 1) 0 (Worlds.enumerate doc) in
      counted = float_of_int enumerated)

let prop_validate_random =
  QCheck.Test.make ~name:"generated documents validate" ~count:100 doc_gen (fun doc ->
      Result.is_ok (Pxml.validate doc))

(* ---- compaction ------------------------------------------------------------ *)

let world_distributions_equal a b =
  let wa = Worlds.merged a and wb = Worlds.merged b in
  List.length wa = List.length wb
  && List.for_all2
       (fun (p, w) (q, v) ->
         Float.abs (p -. q) < 1e-6 && List.equal Tree.deep_equal w v)
       wa wb

let test_compact_merges_duplicates () =
  let dup =
    Pxml.dist
      [
        Pxml.choice ~prob:0.3 [ Pxml.text "x" ];
        Pxml.choice ~prob:0.45 [ Pxml.text "x" ];
        Pxml.choice ~prob:0.25 [ Pxml.text "y" ];
      ]
  in
  let c = Compact.compact dup in
  check Alcotest.int "two choices left" 2 (List.length c.Pxml.choices);
  check Alcotest.bool "distribution preserved" true (world_distributions_equal dup c)

let test_compact_prunes_zero () =
  let z =
    Pxml.dist [ Pxml.choice ~prob:0. [ Pxml.text "ghost" ]; Pxml.choice ~prob:1. [ Pxml.text "real" ] ]
  in
  let c = Compact.compact z in
  check Alcotest.int "one choice" 1 (List.length c.Pxml.choices);
  check Alcotest.bool "certain now" true (Pxml.is_certain c)

let test_compact_fuses_certain_dists () =
  let doc =
    Pxml.certain
      [
        Pxml.elem "r"
          [ Pxml.certain [ Pxml.text "a" ]; Pxml.certain [ Pxml.text "b" ]; Pxml.certain [] ];
      ]
  in
  let c = Compact.compact doc in
  (match c.Pxml.choices with
  | [ { Pxml.nodes = [ Pxml.Elem (_, _, [ d ]) ]; _ } ] ->
      check Alcotest.int "one fused dist" 1 (List.length d.Pxml.choices)
  | _ -> Alcotest.fail "unexpected shape");
  check Alcotest.bool "distribution preserved" true (world_distributions_equal doc c)

let test_compact_idempotent_fig2 () =
  let c = Compact.compact fig2_doc in
  check Alcotest.bool "fixpoint" true (Pxml.equal c (Compact.compact c));
  check Alcotest.bool "distribution preserved" true (world_distributions_equal fig2_doc c)

(* A NaN probability is an error, not a possibility to drop or a
   fixpoint to chase: NaN never equals itself, so the all-NaN node used
   to make compaction loop forever. *)
let test_compact_rejects_nan () =
  let raw probs =
    Pxml.dist_unchecked (List.mapi (fun i prob -> { Pxml.prob; nodes = [ Pxml.text (string_of_int i) ] }) probs)
  in
  let rejects label d =
    match Compact.compact (Pxml.certain [ Pxml.elem "r" [ d ] ]) with
    | exception Pxml.Invalid _ -> ()
    | _ -> Alcotest.failf "%s: NaN accepted" label
  in
  rejects "all NaN" (raw [ Float.nan; Float.nan ]);
  rejects "one NaN among finite" (raw [ 0.5; Float.nan; 0.5 ])

let prop_compact_preserves_distribution =
  QCheck.Test.make ~name:"compact preserves world distribution" ~count:100 doc_gen
    (fun doc -> world_distributions_equal doc (Compact.compact doc))

let prop_compact_never_grows =
  QCheck.Test.make ~name:"compact never grows the representation" ~count:100 doc_gen
    (fun doc -> Pxml.node_count (Compact.compact doc) <= Pxml.node_count doc)

let prop_compact_valid =
  QCheck.Test.make ~name:"compact output validates" ~count:100 doc_gen (fun doc ->
      Result.is_ok (Pxml.validate (Compact.compact doc)))

(* ---- budgeted reduction ----------------------------------------------------- *)

let test_prune_to_budget () =
  (* a wide store: 10 independent binary choices = 1024 worlds *)
  let choice i =
    Pxml.dist
      [
        Pxml.choice ~prob:0.9 [ Pxml.text (Fmt.str "keep%d" i) ];
        Pxml.choice ~prob:0.1 [ Pxml.text (Fmt.str "alt%d" i) ];
      ]
  in
  let doc = Pxml.certain [ Pxml.elem "r" (List.init 10 choice) ] in
  check (Alcotest.float 0.) "1024 worlds" 1024. (Pxml.world_count doc);
  (* an already-fitting document is only compacted, never cut *)
  let same = Compact.prune_to_budget ~world_budget:2048 doc in
  check Alcotest.bool "within budget: distribution preserved" true
    (world_distributions_equal doc same);
  (* squeezing the world budget escalates until the document fits *)
  let cut = Compact.prune_to_budget ~world_budget:8 doc in
  (match Pxml.world_count_int cut with
  | Some w -> check Alcotest.bool "world budget met" true (w <= 8)
  | None -> Alcotest.fail "world count overflowed after pruning");
  check Alcotest.bool "still valid" true (Result.is_ok (Pxml.validate cut));
  (* a node budget only the argmax worlds can satisfy *)
  let tiny = Compact.prune_to_budget ~node_budget:(Pxml.node_count doc / 3) doc in
  check Alcotest.bool "node budget met" true
    (Pxml.node_count tiny <= Pxml.node_count doc / 3);
  check Alcotest.bool "tiny output valid" true (Result.is_ok (Pxml.validate tiny))

(* ---- codec ------------------------------------------------------------------ *)

let test_codec_roundtrip_fig2 () =
  match Codec.decode (Codec.encode fig2_doc) with
  | Ok doc -> check Alcotest.bool "roundtrip" true (Pxml.equal fig2_doc doc)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_codec_string_roundtrip () =
  match Codec.of_string (Codec.to_string ~indent:2 fig2_doc) with
  | Ok doc -> check Alcotest.bool "string roundtrip" true (Pxml.equal fig2_doc doc)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_codec_rejects_malformed () =
  let reject s =
    match Codec.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  reject "<p:poss p=\"1\"/>";
  reject "<p:prob><p:poss/></p:prob>";
  reject "<p:prob><p:poss p=\"abc\"/></p:prob>";
  reject "<p:prob><p:poss p=\"nan\"/></p:prob>";
  reject "<p:prob><p:poss p=\"nan\"/><p:poss p=\"1\"/></p:prob>";
  reject "<p:prob><p:poss p=\"0.5\"/></p:prob>";
  reject "<p:prob><wrong/></p:prob>";
  reject "<p:prob><p:poss p=\"1\"><a>text<p:prob><p:poss p=\"1\"/></p:prob></a></p:poss></p:prob>"

(* ---- node identity ------------------------------------------------------------- *)

(* Look-alike persons differ only deep inside: a hash that reads a bounded
   prefix of the value put all of them in one bucket. *)
let test_table_spreads_lookalikes () =
  let tbl = Pxml.Table.create 16 in
  for i = 0 to 9_999 do
    let person =
      Tree.element "person" [ Tree.leaf "nm" (Printf.sprintf "person %d" i); Tree.leaf "tel" "1111" ]
    in
    Pxml.Table.replace tbl (Pxml.of_tree person) ()
  done;
  check Alcotest.int "all distinct" 10_000 (Pxml.Table.length tbl);
  let longest = (Pxml.Table.stats tbl).Hashtbl.max_bucket_length in
  if longest > 8 then Alcotest.failf "largest bucket holds %d nodes" longest

(* Separately allocated equal copies come out of compaction as one
   object, and so do copies that only become equal once compacted. *)
let test_compact_shares_equal_subtrees () =
  let k = 50 in
  let copy i =
    let tel = Pxml.elem "tel" [ Pxml.certain [ Pxml.text "1111" ] ] in
    let nm = Pxml.elem "nm" [ Pxml.certain [ Pxml.text "John" ] ] in
    if i mod 2 = 0 then Pxml.elem "person" [ Pxml.certain [ nm ]; Pxml.certain [ tel ] ]
    else Pxml.elem "person" [ Pxml.certain [ nm; tel ] ]
  in
  let doc = Pxml.certain [ Pxml.elem "book" [ Pxml.certain (List.init k copy) ] ] in
  match (Compact.compact doc).Pxml.choices with
  | [ { Pxml.nodes = [ Pxml.Elem (_, _, [ { Pxml.choices = [ { Pxml.nodes = first :: rest; _ } ]; _ } ]) ]; _ } ]
    ->
      check Alcotest.int "copies" (k - 1) (List.length rest);
      List.iter (fun n -> check Alcotest.bool "one shared object" true (n == first)) rest
  | _ -> Alcotest.fail "unexpected compacted shape"

(* One probability node of 10^5 possibilities, each value twice: the merge
   finds each duplicate through one hash lookup, where comparing each
   possibility with every earlier kept one takes about 2.5x10^9 steps. *)
let test_compact_many_choices () =
  let n = 100_000 and distinct = 50_000 in
  let prob = 1. /. float_of_int n in
  let doc =
    Pxml.dist
      (List.init n (fun i ->
           Pxml.choice ~prob [ Pxml.elem "v" [ Pxml.certain [ Pxml.text (string_of_int (i mod distinct)) ] ] ]))
  in
  let compacted = Compact.compact doc in
  check Alcotest.int "choices" distinct (List.length compacted.Pxml.choices);
  List.iter
    (fun (c : Pxml.choice) -> check (Alcotest.float 1e-9) "merged mass" (1. /. float_of_int distinct) c.prob)
    compacted.Pxml.choices

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"encode ∘ decode = id" ~count:100 doc_gen (fun doc ->
      match Codec.of_string (Codec.to_string doc) with
      | Ok doc' -> Pxml.equal doc doc'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q p = QCheck_alcotest.to_alcotest p in
  [
    ( "pxml.model",
      [
        t "dist validation" test_dist_validation;
        t "deep validation" test_validate_deep;
        t "of_tree/to_tree roundtrip" test_of_tree_roundtrip;
        t "to_tree_exn rejects uncertainty" test_to_tree_exn_uncertain;
        t "is_certain sees nesting" test_is_certain_nested;
        q prop_validate_random;
      ] );
    ( "pxml.stats",
      [
        t "figure-2 node breakdown" test_stats_fig2;
        t "figure-2 world count" test_world_count_fig2;
        t "independent choices multiply" test_world_count_multiplies;
      ] );
    ( "pxml.worlds",
      [
        t "figure-2 has three worlds" test_fig2_worlds;
        t "certain document = one world" test_certain_single_world;
        q prop_world_probabilities_sum_to_one;
        q prop_world_count_matches_enumeration;
      ] );
    ( "pxml.compact",
      [
        t "merges duplicate possibilities" test_compact_merges_duplicates;
        t "prunes zero-probability" test_compact_prunes_zero;
        t "fuses certain probability nodes" test_compact_fuses_certain_dists;
        t "idempotent on figure-2" test_compact_idempotent_fig2;
        t "rejects NaN probabilities" test_compact_rejects_nan;
        q prop_compact_preserves_distribution;
        q prop_compact_never_grows;
        q prop_compact_valid;
        t "prune_to_budget meets node and world budgets" test_prune_to_budget;
        t "shares equal subtrees" test_compact_shares_equal_subtrees;
        t "merges 10^5 possibilities by hash" test_compact_many_choices;
      ] );
    ("pxml.table", [ t "spreads look-alike elements" test_table_spreads_lookalikes ]);
    ( "pxml.codec",
      [
        t "figure-2 roundtrip" test_codec_roundtrip_fig2;
        t "string roundtrip" test_codec_string_roundtrip;
        t "rejects malformed encodings" test_codec_rejects_malformed;
        q prop_codec_roundtrip;
      ] );
  ]
