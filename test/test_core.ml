(* Tests for the facade API and the rule-set presets. *)

module Rulesets = Imprecise.Rulesets
module Oracle = Imprecise.Oracle
module Workloads = Imprecise.Data.Workloads
module Addressbook = Imprecise.Data.Addressbook
module Answer = Imprecise.Answer
module Integrate = Imprecise.Integrate

let check = Alcotest.check

let test_parse_xml () =
  check Alcotest.bool "ok" true (Result.is_ok (Imprecise.parse_xml "<a/>"));
  match Imprecise.parse_xml "<a" with
  | Error msg -> check Alcotest.bool "message has position" true (Astring_contains.contains msg ":")
  | Ok _ -> Alcotest.fail "expected error"

let test_ruleset_names () =
  check
    Alcotest.(list string)
    "table 1 rows"
    [ "none"; "genre"; "title"; "genre+title"; "genre+title+year" ]
    (List.map (fun (r : Rulesets.t) -> r.name) Rulesets.table1);
  check Alcotest.string "full" "genre+title+year+director" Rulesets.full.name

let test_facade_integrate_and_rank () =
  match
    Imprecise.integrate ~rules:Rulesets.generic ~dtd:Addressbook.dtd Addressbook.source_a
      Addressbook.source_b
  with
  | Error e -> Alcotest.failf "integrate failed: %a" Integrate.pp_error e
  | Ok doc ->
      check Alcotest.int "node count exposed" (Imprecise.Pxml.node_count doc)
        (Imprecise.node_count doc);
      check (Alcotest.float 1e-9) "world count exposed" 3. (Imprecise.world_count doc);
      let answers = Imprecise.rank doc "//person/nm" in
      check Alcotest.int "one name" 1 (List.length answers);
      check Alcotest.string "John" "John" (List.hd answers).Answer.value

let test_facade_stats_agree () =
  let wl = Workloads.confusing () in
  let a = Workloads.mpeg7_doc wl and b = Workloads.imdb_doc wl in
  let rules = Rulesets.movie ~genre:true ~title:true ~year:true () in
  match Imprecise.integrate ~rules ~dtd:wl.dtd a b, Imprecise.integration_stats ~rules ~dtd:wl.dtd a b with
  | Ok doc, Ok s ->
      check (Alcotest.float 1e-6) "facade stats mirror" (float_of_int (Imprecise.node_count doc))
        s.Integrate.nodes
  | Error e, _ | _, Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e

let test_query_certain () =
  let doc = Imprecise.parse_xml_exn "<r><a>1</a><a>2</a></r>" in
  check Alcotest.(list string) "certain query" [ "1"; "2" ] (Imprecise.query_certain doc "//a")

let test_rulesets_decide_movie_pairs () =
  (* The year rule decides, the title rule restricts, with the expected
     interplay on the paper's franchise. *)
  let mpeg7 m = Imprecise.Data.Movie.render Imprecise.Data.Movie.Mpeg7 m in
  let imdb m = Imprecise.Data.Movie.render Imprecise.Data.Movie.Imdb m in
  let wl = Workloads.confusing () in
  let find title l = List.find (fun (m : Imprecise.Data.Movie.t) -> m.title = title) l in
  let jaws_a = mpeg7 (find "Jaws" wl.mpeg7) in
  let jaws_b = imdb (find "Jaws" wl.imdb) in
  let mi_tv = imdb (find "Mission: Impossible" wl.imdb) in
  let all = Rulesets.movie ~genre:true ~title:true ~year:true () in
  (match Oracle.decide all.oracle jaws_a jaws_b with
  | Oracle.Unsure _ -> ()
  | v -> Alcotest.failf "co-ref pair should stay unsure, got %a" Oracle.pp_verdict v);
  match Oracle.decide all.oracle jaws_a mi_tv with
  | Oracle.Different -> ()
  | v -> Alcotest.failf "cross-franchise should be Different, got %a" Oracle.pp_verdict v

let test_integrate_many () =
  let book tel =
    Imprecise.parse_xml_exn
      (Printf.sprintf
         "<addressbook><person><nm>John</nm><tel>%s</tel></person></addressbook>" tel)
  in
  (match Imprecise.integrate_many ~rules:Rulesets.generic ~dtd:Addressbook.dtd
           [ book "1111"; book "2222"; book "1111" ]
   with
  | Error e -> Alcotest.failf "integrate_many failed: %a" Integrate.pp_error e
  | Ok doc ->
      check Alcotest.bool "valid" true (Result.is_ok (Imprecise.Pxml.validate doc));
      (* three sources, two say 1111 *)
      let answers = Imprecise.rank doc "//person/tel" in
      let p v =
        match List.find_opt (fun (a : Answer.t) -> a.Answer.value = v) answers with
        | Some a -> a.Answer.prob
        | None -> 0.
      in
      check Alcotest.bool "majority number more likely" true (p "1111" > p "2222"));
  (match Imprecise.integrate_many [ Imprecise.parse_xml_exn "<r><a>1</a></r>" ] with
  | Ok doc -> check Alcotest.bool "single source is certain" true (Imprecise.Pxml.is_certain doc)
  | Error e -> Alcotest.failf "single source failed: %a" Integrate.pp_error e);
  match Imprecise.integrate_many [] with
  | Error (Integrate.No_sources as e) ->
      check Alcotest.string "empty-list error text" "no sources to integrate"
        (Fmt.str "%a" Integrate.pp_error e)
  | Error e -> Alcotest.failf "wrong error for no sources: %a" Integrate.pp_error e
  | Ok _ -> Alcotest.fail "empty source list accepted"

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "core.facade",
      [
        t "parse_xml" test_parse_xml;
        t "integrate + rank one-liners" test_facade_integrate_and_rank;
        t "stats mirrors through the facade" test_facade_stats_agree;
        t "integrate_many folds many sources" test_integrate_many;
        t "query_certain" test_query_certain;
      ] );
    ( "core.rulesets",
      [
        t "preset names" test_ruleset_names;
        t "verdicts on paper pairs" test_rulesets_decide_movie_pairs;
      ] );
  ]
