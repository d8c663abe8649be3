(* Tests for answer-quality and uncertainty measures. *)

module Quality = Imprecise.Quality
module Answer = Imprecise.Answer
module Pxml = Imprecise.Pxml
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Addressbook = Imprecise.Data.Addressbook

let check = Alcotest.check

let fcheck name = check (Alcotest.float 1e-9) name

let answers l = List.map (fun (value, prob) -> { Answer.value; prob }) l

let test_probabilistic_precision () =
  let a = answers [ ("good", 0.8); ("bad", 0.2) ] in
  fcheck "mass-weighted" 0.8 (Quality.probabilistic_precision a ~truth:[ "good" ]);
  fcheck "all correct" 1. (Quality.probabilistic_precision a ~truth:[ "good"; "bad" ]);
  fcheck "none correct" 0. (Quality.probabilistic_precision a ~truth:[ "other" ]);
  fcheck "empty answer is vacuously precise" 1.
    (Quality.probabilistic_precision [] ~truth:[ "x" ])

let test_probabilistic_recall () =
  let a = answers [ ("good", 0.8); ("bad", 0.2) ] in
  fcheck "found with 0.8 confidence" 0.8 (Quality.probabilistic_recall a ~truth:[ "good" ]);
  fcheck "half the truth at 0.8" 0.4 (Quality.probabilistic_recall a ~truth:[ "good"; "missing" ]);
  fcheck "empty truth" 1. (Quality.probabilistic_recall a ~truth:[])

let test_f_measure () =
  let a = answers [ ("good", 1.0) ] in
  fcheck "perfect" 1. (Quality.f_measure a ~truth:[ "good" ]);
  fcheck "zero" 0. (Quality.f_measure a ~truth:[ "other" ]);
  let h = Quality.f_measure (answers [ ("good", 0.5); ("bad", 0.5) ]) ~truth:[ "good" ] in
  fcheck "harmonic mean" 0.5 h

let test_top_k () =
  let a = answers [ ("x", 0.9); ("y", 0.5); ("z", 0.1) ] in
  check Alcotest.int "top 2" 2 (List.length (Quality.top_k 2 a));
  check Alcotest.string "best first" "x" (List.hd (Quality.top_k 2 a)).Answer.value

let fig2 =
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd ()
  in
  Result.get_ok (Integrate.integrate cfg Addressbook.source_a Addressbook.source_b)

let ok = function
  | Ok v -> v
  | Error (Quality.Too_many_worlds n) -> Alcotest.failf "too many worlds: %g" n
  | Error (Quality.Bad_query msg) -> Alcotest.failf "bad query: %s" msg

let test_expected_set_measures () =
  (* Truth: John's phone is 1111. Query: all phones. Worlds: both phones
     (precision 1/2, recall 1), 1111 (1, 1), 2222 (0, 0). *)
  let p, r = ok (Quality.expected_set_measures fig2 ~query:"//person/tel" ~truth:[ "1111" ]) in
  fcheck "expected precision" ((0.5 *. 0.5) +. (0.25 *. 1.) +. (0.25 *. 0.)) p;
  fcheck "expected recall" ((0.5 *. 1.) +. (0.25 *. 1.) +. (0.25 *. 0.)) r

let test_expected_guard () =
  (match Quality.expected_set_measures ~limit:1. fig2 ~query:"//person" ~truth:[] with
  | Error (Quality.Too_many_worlds _) -> ()
  | _ -> Alcotest.fail "expected guard to fire");
  match Quality.world_entropy ~limit:1. fig2 with
  | Error (Quality.Too_many_worlds _) -> ()
  | _ -> Alcotest.fail "expected entropy guard to fire"

let test_expected_bad_query () =
  match Quality.expected_set_measures fig2 ~query:"//person[" ~truth:[] with
  | Error (Quality.Bad_query _) -> ()
  | _ -> Alcotest.fail "expected a Bad_query error"

let test_world_entropy () =
  (* Distribution {0.5, 0.25, 0.25} has entropy 1.5 bits. *)
  fcheck "fig2 entropy" 1.5 (ok (Quality.world_entropy fig2));
  let certain = Pxml.doc_of_tree (Imprecise.parse_xml_exn "<r/>") in
  fcheck "certain doc has zero entropy" 0. (ok (Quality.world_entropy certain))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "quality",
      [
        t "probabilistic precision" test_probabilistic_precision;
        t "probabilistic recall" test_probabilistic_recall;
        t "F measure" test_f_measure;
        t "top-k" test_top_k;
        t "expected set measures over worlds" test_expected_set_measures;
        t "world-limit guard" test_expected_guard;
        t "a bad query is a typed error" test_expected_bad_query;
        t "world entropy" test_world_entropy;
      ] );
  ]
