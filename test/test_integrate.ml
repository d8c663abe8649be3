(* Tests for matchings and the probabilistic integration engine, including
   the property that the analytic size estimator mirrors the materialiser
   exactly. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Oracle = Imprecise.Oracle
module Matching = Imprecise.Matching
module Integrate = Imprecise.Integrate
module Dtd = Imprecise.Dtd
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads
module Rulesets = Imprecise.Rulesets

let check = Alcotest.check

let parse = Imprecise.parse_xml_exn

(* ---- matchings ------------------------------------------------------------ *)

let edge left right prob = { Matching.left; right; prob }

let full_graph m n p =
  {
    Matching.n_left = m;
    n_right = n;
    edges = List.concat (List.init m (fun i -> List.init n (fun j -> edge i j p)));
  }

let count_full m n =
  (* Σ_k C(m,k)·C(n,k)·k! — the number of partial injective matchings *)
  let rec fact k = if k = 0 then 1 else k * fact (k - 1) in
  let choose a b =
    if b > a then 0 else fact a / (fact b * fact (a - b))
  in
  List.fold_left ( + ) 0
    (List.init (min m n + 1) (fun k -> choose m k * choose n k * fact k))

let test_matching_counts () =
  List.iter
    (fun (m, n) ->
      let g = full_graph m n 0.5 in
      let c = List.hd (Matching.clusters g) in
      check Alcotest.int
        (Printf.sprintf "matchings of K(%d,%d)" m n)
        (count_full m n) (Matching.count_matchings c))
    [ (1, 1); (2, 2); (2, 3); (3, 3); (4, 2) ]

let test_matching_probabilities_sum () =
  let g = full_graph 3 3 0.4 in
  let c = List.hd (Matching.clusters g) in
  let ms = Matching.matchings c in
  let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. ms in
  check (Alcotest.float 1e-9) "normalised" 1. total;
  check Alcotest.bool "all positive" true (List.for_all (fun (p, _) -> p > 0.) ms)

let test_matching_forced () =
  (* Forced edge (0,0): every matching must contain it. *)
  let g =
    { Matching.n_left = 2; n_right = 2; edges = [ edge 0 0 1.; edge 0 1 0.5; edge 1 1 0.5 ] }
  in
  let c = List.hd (Matching.clusters g) in
  let ms = Matching.matchings c in
  check Alcotest.bool "forced edge everywhere" true
    (List.for_all (fun (_, pairs) -> List.mem (0, 0) pairs) ms);
  check Alcotest.int "two matchings" 2 (List.length ms)

let test_matching_infeasible () =
  let g = { Matching.n_left = 2; n_right = 1; edges = [ edge 0 0 1.; edge 1 0 1. ] } in
  match Matching.matchings (List.hd (Matching.clusters g)) with
  | exception Matching.Infeasible _ -> ()
  | _ -> Alcotest.fail "conflicting forced edges accepted"

let test_matching_limit () =
  let g = full_graph 4 4 0.5 in
  match Matching.matchings ~limit:10 (List.hd (Matching.clusters g)) with
  | exception Matching.Too_many _ -> ()
  | _ -> Alcotest.fail "limit not enforced"

let test_clusters () =
  let g =
    { Matching.n_left = 4; n_right = 4; edges = [ edge 0 0 0.5; edge 1 0 0.5; edge 2 2 0.5 ] }
  in
  let cs = Matching.clusters g in
  check Alcotest.int "two clusters" 2 (List.length cs);
  (match cs with
  | [ c1; c2 ] ->
      check Alcotest.(list int) "cluster 1 lefts" [ 0; 1 ] c1.Matching.lefts;
      check Alcotest.(list int) "cluster 1 rights" [ 0 ] c1.Matching.rights;
      check Alcotest.(list int) "cluster 2 lefts" [ 2 ] c2.Matching.lefts
  | _ -> Alcotest.fail "expected two clusters");
  let iso_l, iso_r = Matching.isolated g in
  check Alcotest.(list int) "isolated lefts" [ 3 ] iso_l;
  check Alcotest.(list int) "isolated rights" [ 1; 3 ] iso_r

let test_graph_from_verdicts () =
  let verdict i j =
    if i = j then Oracle.Same else if i < j then Oracle.Unsure 0.3 else Oracle.Different
  in
  let g, tally = Matching.graph ~n_left:2 ~n_right:2 verdict in
  check Alcotest.int "edges" 3 (List.length g.Matching.edges);
  check Alcotest.int "every cell evaluated" 4 tally.Matching.pairs

(* ---- integration: figure 2 -------------------------------------------------- *)

let fig2_config ?factorize () =
  Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd
    ?factorize ()

let integrate_fig2 () =
  match Integrate.integrate (fig2_config ()) Addressbook.source_a Addressbook.source_b with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "integrate failed: %a" Integrate.pp_error e

let test_fig2_worlds () =
  let doc = integrate_fig2 () in
  check Alcotest.bool "valid" true (Result.is_ok (Pxml.validate doc));
  let worlds = Worlds.merged doc in
  check Alcotest.int "three worlds" 3 (List.length worlds);
  let probs = List.map fst worlds in
  check (Alcotest.float 1e-9) "p(no match)" 0.5 (List.nth probs 0);
  check (Alcotest.float 1e-9) "p(match, 1111)" 0.25 (List.nth probs 1);
  check (Alcotest.float 1e-9) "p(match, 2222)" 0.25 (List.nth probs 2);
  (* The DTD rejected the two-phones world: no world has a person with two
     tel children. *)
  List.iter
    (fun (_, forest) ->
      List.iter
        (fun w ->
          Tree.iter
            (fun n ->
              if Tree.name n = Some "person" then
                check Alcotest.bool "at most one tel" true
                  (List.length (Tree.find_children n "tel") <= 1))
            w)
        forest)
    worlds

let test_fig2_without_dtd () =
  (* Without the DTD, the matched John keeps both phone numbers: the
     two-phone world is possible and there are still 3 worlds, but one of
     them has a two-phone person. *)
  let cfg = Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) () in
  match Integrate.integrate cfg Addressbook.source_a Addressbook.source_b with
  | Error e -> Alcotest.failf "integrate failed: %a" Integrate.pp_error e
  | Ok doc ->
      (* Without the DTD the tels also enter the matching pool, so: persons
         distinct; persons same with both phones; persons same with the
         tels co-referent and one of two values — 4 distinct worlds. *)
      let worlds = Worlds.merged doc in
      check Alcotest.int "four worlds" 4 (List.length worlds);
      let has_two_phone_person =
        List.exists
          (fun (_, forest) ->
            List.exists
              (fun w ->
                Tree.fold
                  (fun acc n ->
                    acc
                    || Tree.name n = Some "person"
                       && List.length (Tree.find_children n "tel") = 2)
                  false w)
              forest)
          worlds
      in
      check Alcotest.bool "two-phone John possible" true has_two_phone_person

let test_fig2_matches_paper_tree () =
  (* The integrated document is exactly the hand-built Figure 2 document
     from the pxml tests, up to world distribution. *)
  let doc = integrate_fig2 () in
  check Alcotest.int "world combinations" (Some 3 |> Option.get)
    (Option.get (Pxml.world_count_int doc))

(* ---- integration: semantics ---------------------------------------------------- *)

let oracle_05 = Oracle.make [ Oracle.deep_equal_rule ]

let worlds_equal a b =
  let wa = Worlds.merged a and wb = Worlds.merged b in
  List.length wa = List.length wb
  && List.for_all2
       (fun (p, w) (q, v) -> Float.abs (p -. q) < 1e-6 && List.equal Tree.deep_equal w v)
       wa wb

let test_identical_documents_merge () =
  let d = parse "<r><a>x</a><b>y</b></r>" in
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match Integrate.integrate cfg d d with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc -> (
      check Alcotest.bool "certain result" true (Pxml.is_certain doc);
      match Pxml.to_tree_exn doc with
      | [ t ] -> check Alcotest.bool "same document" true (Tree.deep_equal d t)
      | _ -> Alcotest.fail "one root expected")

let test_all_different_concatenates () =
  let all_diff = Oracle.make [ { Oracle.name = "nope"; judge = (fun _ _ -> Some Oracle.Different) } ] in
  let a = parse "<r><x>1</x></r>" and b = parse "<r><x>2</x></r>" in
  let cfg = Integrate.config ~oracle:all_diff () in
  match Integrate.integrate cfg a b with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc -> (
      check Alcotest.bool "certain" true (Pxml.is_certain doc);
      match Pxml.to_tree_exn doc with
      | [ t ] -> check Alcotest.int "both children kept" 2 (List.length (Tree.children t))
      | _ -> Alcotest.fail "one root expected")

let test_symmetry_up_to_worlds () =
  let a = Addressbook.source_a and b = Addressbook.source_b in
  let cfg = fig2_config () in
  match Integrate.integrate cfg a b, Integrate.integrate cfg b a with
  | Ok ab, Ok ba ->
      let wa = Worlds.merged ab and wb = Worlds.merged ba in
      check Alcotest.int "same world count" (List.length wa) (List.length wb);
      List.iter2
        (fun (p, _) (q, _) -> check (Alcotest.float 1e-6) "same probabilities" p q)
        wa wb
  | _ -> Alcotest.fail "integration failed"

let test_empty_collections () =
  let cfg = Integrate.config ~oracle:oracle_05 () in
  (* both empty *)
  (match Integrate.integrate cfg (parse "<movies/>") (parse "<movies/>") with
  | Ok doc -> (
      check Alcotest.bool "certain" true (Pxml.is_certain doc);
      match Pxml.to_tree_exn doc with
      | [ Tree.Element ("movies", _, []) ] -> ()
      | _ -> Alcotest.fail "expected an empty movies element")
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e);
  (* one empty: the other side's content is kept certainly *)
  match Integrate.integrate cfg (parse "<movies/>") (parse "<movies><m>x</m></movies>") with
  | Ok doc -> (
      match Pxml.to_tree_exn doc with
      | [ t ] -> check Alcotest.int "one child kept" 1 (List.length (Tree.children t))
      | _ -> Alcotest.fail "one root expected")
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e

let test_root_mismatch () =
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match Integrate.integrate cfg (parse "<a/>") (parse "<b/>") with
  | Error (Integrate.Root_mismatch ("a", "b")) -> ()
  | _ -> Alcotest.fail "expected Root_mismatch"

let test_mixed_content_rejected () =
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match
    Integrate.integrate cfg (parse "<r>text<a/></r>") (parse "<r>text<a/></r>")
  with
  | Error (Integrate.Mixed_content "r") -> ()
  | Ok _ -> Alcotest.fail "mixed content accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e

(* Adjacent text children are one text, as [Tree.canonical] merges them:
   "x" and "y" read "xy", never "x y". *)
let test_adjacent_text_is_canonical () =
  let cfg = Integrate.config ~oracle:oracle_05 () in
  let a = Tree.Element ("r", [], [ Tree.Element ("v", [], [ Tree.Text "x"; Tree.Text "y" ]) ]) in
  let b = parse "<r><v>xy</v></r>" in
  match (Integrate.integrate cfg a b, Integrate.integrate cfg (Tree.canonical a) b) with
  | Ok doc, Ok doc_canonical ->
      check Alcotest.bool "same document as the canonical source's" true
        (Pxml.equal doc doc_canonical);
      (match Worlds.merged doc with
      | [ (_, [ w ]) ] -> check Alcotest.string "one world, text concatenated" "xy" (Tree.text_content w)
      | ws -> Alcotest.failf "expected one world, got %d" (List.length ws))
  | Error e, _ | _, Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e

let test_text_conflict () =
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match Integrate.integrate cfg (parse "<v>1</v>") (parse "<v>2</v>") with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc ->
      let worlds = Worlds.merged doc in
      check Alcotest.int "two value worlds" 2 (List.length worlds);
      List.iter (fun (p, _) -> check (Alcotest.float 1e-9) "even" 0.5 p) worlds

let test_value_conflict_weights () =
  let cfg = Integrate.config ~oracle:oracle_05 ~value_conflict:(fun _ _ -> 0.8) () in
  match Integrate.integrate cfg (parse "<v>1</v>") (parse "<v>2</v>") with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc -> (
      match Worlds.merged doc with
      | [ (p1, [ w1 ]); (p2, _) ] ->
          check (Alcotest.float 1e-9) "left weight" 0.8 p1;
          check Alcotest.string "left value first" "1" (Tree.text_content w1);
          check (Alcotest.float 1e-9) "right weight" 0.2 p2
      | _ -> Alcotest.fail "expected two worlds")

let test_reconcile_hook () =
  let reconcile tag l r =
    if tag = "v" then Some (l ^ "/" ^ r) else None
  in
  let cfg = Integrate.config ~oracle:oracle_05 ~reconcile () in
  match Integrate.integrate cfg (parse "<v>a</v>") (parse "<v>b</v>") with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc -> (
      check Alcotest.bool "certain" true (Pxml.is_certain doc);
      match Pxml.to_tree_exn doc with
      | [ t ] -> check Alcotest.string "reconciled" "a/b" (Tree.text_content t)
      | _ -> Alcotest.fail "one root")

let test_attribute_conflict () =
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match Integrate.integrate cfg (parse {|<r k="1" x="s"/>|}) (parse {|<r k="2" y="t"/>|}) with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc ->
      let worlds = Worlds.merged doc in
      check Alcotest.int "two attr worlds" 2 (List.length worlds);
      List.iter
        (fun (_, forest) ->
          match forest with
          | [ w ] ->
              (* non-conflicting attributes from both sides survive *)
              check Alcotest.(option string) "x kept" (Some "s") (Tree.attribute w "x");
              check Alcotest.(option string) "y kept" (Some "t") (Tree.attribute w "y")
          | _ -> Alcotest.fail "one root")
        worlds

let test_structural_conflict_alternatives () =
  (* One side text, other side elements: the merged element becomes a
     choice between the two variants. *)
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match Integrate.integrate cfg (parse "<r>just text</r>") (parse "<r><a>x</a></r>") with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok doc -> check Alcotest.int "two worlds" 2 (List.length (Worlds.merged doc))

let test_oracle_conflict_propagates () =
  let conflicted =
    Oracle.make
      [
        { Oracle.name = "s"; judge = (fun _ _ -> Some Oracle.Same) };
        { Oracle.name = "d"; judge = (fun _ _ -> Some Oracle.Different) };
      ]
  in
  let cfg = Integrate.config ~oracle:conflicted () in
  match Integrate.integrate cfg (parse "<r><a>1</a></r>") (parse "<r><a>2</a></r>") with
  | Error (Integrate.Oracle_conflict _) -> ()
  | _ -> Alcotest.fail "expected Oracle_conflict"

let test_infeasible_propagates () =
  (* Two identical siblings on one side, deep-equal forced to one right:
     sibling distinctness is violated. *)
  let cfg = Integrate.config ~oracle:oracle_05 () in
  match
    Integrate.integrate cfg (parse "<r><a>x</a><a>x</a></r>") (parse "<r><a>x</a></r>")
  with
  | Error (Integrate.Infeasible _) -> ()
  | Ok _ -> Alcotest.fail "expected Infeasible"
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e

let test_too_large () =
  let wl = Workloads.confusing () in
  let cfg =
    Integrate.config ~oracle:Rulesets.generic.oracle ~dtd:wl.dtd ~max_possibilities:100 ()
  in
  match Integrate.integrate cfg (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl) with
  | Error (Integrate.Too_large _) -> ()
  | Ok _ -> Alcotest.fail "expected Too_large"
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e

(* ---- factorized representation --------------------------------------------------- *)

let test_factorize_same_distribution () =
  let wl = Workloads.confusing () in
  let rules = Rulesets.movie ~genre:true ~title:true ~year:true () in
  let run factorize =
    let cfg = Integrate.config ~oracle:rules.oracle ~dtd:wl.dtd ~factorize () in
    match Integrate.integrate cfg (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  in
  let flat = run false and fact = run true in
  check Alcotest.bool "same worlds" true (worlds_equal flat fact);
  check Alcotest.bool "factorized no larger" true
    (Pxml.node_count fact <= Pxml.node_count flat)

let test_factorize_smaller_under_confusion () =
  let wl = Workloads.confusing () in
  let rules = Rulesets.movie ~title:true () in
  let run factorize =
    match
      Integrate.stats
        (Integrate.config ~oracle:rules.oracle ~dtd:wl.dtd ~factorize ())
        (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl)
    with
    | Ok s -> s.Integrate.nodes
    | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  in
  check Alcotest.bool "strictly smaller" true (run true < run false /. 2.)

(* ---- analytic estimator mirrors the materialiser --------------------------------- *)

let stats_mirror_cases =
  [
    ("fig2", Addressbook.source_a, Addressbook.source_b, Addressbook.dtd, oracle_05);
    ( "confusing/full-rules",
      Workloads.mpeg7_doc (Workloads.confusing ()),
      Workloads.imdb_doc (Workloads.confusing ()),
      (Workloads.confusing ()).dtd,
      (Rulesets.movie ~genre:true ~title:true ~year:true ()).oracle );
    ( "confusing/genre+title",
      Workloads.mpeg7_doc (Workloads.confusing ()),
      Workloads.imdb_doc (Workloads.confusing ()),
      (Workloads.confusing ()).dtd,
      (Rulesets.movie ~genre:true ~title:true ()).oracle );
  ]

let test_stats_mirror () =
  List.iter
    (fun (name, a, b, dtd, oracle) ->
      List.iter
        (fun factorize ->
          let cfg = Integrate.config ~oracle ~dtd ~factorize () in
          match Integrate.integrate cfg a b, Integrate.stats cfg a b with
          | Ok doc, Ok s ->
              check (Alcotest.float 1e-6)
                (Printf.sprintf "%s nodes (factorize=%b)" name factorize)
                (float_of_int (Pxml.node_count doc))
                s.Integrate.nodes;
              check (Alcotest.float 0.5)
                (Printf.sprintf "%s worlds (factorize=%b)" name factorize)
                (Pxml.world_count doc) s.Integrate.worlds
          | Error e, _ | _, Error e -> Alcotest.failf "%s failed: %a" name Integrate.pp_error e)
        [ false; true ])
    stats_mirror_cases

let prop_stats_mirror_random =
  (* Random small documents with a coin-flip oracle: the estimator and the
     materialiser must agree exactly on node counts. *)
  let gen =
    QCheck.map
      (fun seed ->
        let rng = Imprecise.Data.Prng.make seed in
        let a, rng = Imprecise.Data.Random_docs.xml rng ~depth:2 in
        let b, _ = Imprecise.Data.Random_docs.xml rng ~depth:2 in
        (* force equal roots so integration proceeds *)
        let retag t = match t with Tree.Element (_, at, c) -> Tree.Element ("r", at, c) | t -> t in
        (retag a, retag b))
      QCheck.int
  in
  QCheck.Test.make ~name:"stats mirrors materialisation on random documents" ~count:60 gen
    (fun (a, b) ->
      let cfg = Integrate.config ~oracle:oracle_05 ~max_possibilities:100000 () in
      match Integrate.integrate cfg a b, Integrate.stats cfg a b with
      | Ok doc, Ok s ->
          float_of_int (Pxml.node_count doc) = s.Integrate.nodes
          && Float.abs (Pxml.world_count doc -. s.Integrate.worlds) < 1e-6
      | Error (Integrate.Mixed_content _), Error (Integrate.Mixed_content _) -> true
      | Error (Integrate.Infeasible _), Error (Integrate.Infeasible _) -> true
      | Error (Integrate.Too_large _), _ -> QCheck.assume_fail ()
      | Ok _, Error _ | Error _, Ok _ -> false
      | Error _, Error _ -> true)

let prop_stats_mirror_deeper =
  (* Depth-3 documents: clusters nest inside merged subtrees. *)
  let gen =
    QCheck.map
      (fun seed ->
        let rng = Imprecise.Data.Prng.make seed in
        let a, rng = Imprecise.Data.Random_docs.xml rng ~depth:3 in
        let b, _ = Imprecise.Data.Random_docs.xml rng ~depth:3 in
        let retag t = match t with Tree.Element (_, at, c) -> Tree.Element ("r", at, c) | t -> t in
        (retag a, retag b))
      QCheck.int
  in
  QCheck.Test.make ~name:"stats mirrors materialisation at depth 3" ~count:30 gen
    (fun (a, b) ->
      let cfg = Integrate.config ~oracle:oracle_05 ~max_possibilities:200000 () in
      match Integrate.integrate cfg a b, Integrate.stats cfg a b with
      | Ok doc, Ok s -> float_of_int (Pxml.node_count doc) = s.Integrate.nodes
      | Error (Integrate.Too_large _), _ -> QCheck.assume_fail ()
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_integration_valid_and_normalised =
  let gen =
    QCheck.map
      (fun seed ->
        let rng = Imprecise.Data.Prng.make seed in
        let a, rng = Imprecise.Data.Random_docs.xml rng ~depth:2 in
        let b, _ = Imprecise.Data.Random_docs.xml rng ~depth:2 in
        let retag t = match t with Tree.Element (_, at, c) -> Tree.Element ("r", at, c) | t -> t in
        (retag a, retag b))
      QCheck.int
  in
  QCheck.Test.make ~name:"integration output validates; world probabilities sum to 1"
    ~count:60 gen (fun (a, b) ->
      let cfg = Integrate.config ~oracle:oracle_05 ~max_possibilities:100000 () in
      match Integrate.integrate cfg a b with
      | Error _ -> true
      | Ok doc ->
          Result.is_ok (Pxml.validate doc)
          &&
          if Pxml.world_count doc <= 5000. then
            Float.abs (Worlds.total_probability doc -. 1.) < 1e-6
          else true)

(* ---- workload-level regression (the paper's headline numbers) --------------------- *)

let test_stats_mirror_figure5_points () =
  (* The headline Figure-5 curve is produced by the estimator; check it
     against full materialisation at the largest still-materialisable
     points. *)
  let wl = Workloads.figure5 ~n_imdb:8 in
  let a = Workloads.mpeg7_doc wl and b = Workloads.imdb_doc wl in
  List.iter
    (fun (rs : Rulesets.t) ->
      let cfg =
        Integrate.config ~oracle:rs.oracle ~dtd:wl.dtd ~max_possibilities:3_000_000 ()
      in
      match Integrate.integrate cfg a b, Integrate.stats cfg a b with
      | Ok doc, Ok s ->
          check (Alcotest.float 1e-6)
            (Printf.sprintf "nodes at n=8 (%s)" rs.name)
            (float_of_int (Pxml.node_count doc))
            s.Integrate.nodes
      | Error e, _ | _, Error e -> Alcotest.failf "%s failed: %a" rs.name Integrate.pp_error e)
    [ Rulesets.movie ~title:true (); Rulesets.movie ~title:true ~year:true () ]

let test_table1_monotone () =
  let wl = Workloads.confusing () in
  let a = Workloads.mpeg7_doc wl and b = Workloads.imdb_doc wl in
  let nodes =
    List.map
      (fun (rs : Rulesets.t) ->
        match
          Integrate.stats (Integrate.config ~oracle:rs.oracle ~dtd:wl.dtd ()) a b
        with
        | Ok s -> s.Integrate.nodes
        | Error e -> Alcotest.failf "%s failed: %a" rs.name Integrate.pp_error e)
      Rulesets.table1
  in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check Alcotest.bool "each rule reduces uncertainty" true (strictly_decreasing nodes);
  check Alcotest.bool "none-row is in the millions" true (List.nth nodes 0 > 1e6);
  check Alcotest.bool "full rules bring it to thousands" true (List.nth nodes 4 < 5e3)

let test_typical_conditions () =
  let wl = Workloads.typical () in
  let a = Workloads.mpeg7_doc wl and b = Workloads.imdb_doc wl in
  let cfg =
    Integrate.config ~oracle:Rulesets.full.oracle ~reconcile:Rulesets.full.reconcile
      ~dtd:wl.dtd ()
  in
  match Integrate.stats cfg a b with
  | Error e -> Alcotest.failf "failed: %a" Integrate.pp_error e
  | Ok s ->
      check Alcotest.int "two undecided pairs" 2 s.Integrate.trace.Integrate.unsure_pairs;
      check (Alcotest.float 0.) "four possible worlds" 4. s.Integrate.worlds;
      check Alcotest.bool "a few thousand nodes" true (s.Integrate.nodes < 10_000.)

(* ---- blocking: golden pins and counter consistency -------------------------- *)

module Blocking = Imprecise.Blocking
module Codec = Imprecise.Codec

(* Figure 2 under every blocker preset: the blocking stage must not change
   the integration outcome — worlds, probabilities and the merged encoding
   are pinned to the All_pairs baseline. *)
let test_fig2_pinned_under_blockers () =
  let integrate blocker =
    let cfg =
      Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ])
        ~dtd:Addressbook.dtd ~blocker ()
    in
    match Integrate.integrate cfg Addressbook.source_a Addressbook.source_b with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "integrate failed: %a" Integrate.pp_error e
  in
  let baseline = integrate Blocking.All_pairs in
  let ref_bytes = Codec.to_string ~indent:2 baseline in
  check Alcotest.int "baseline: three worlds" 3 (List.length (Worlds.merged baseline));
  List.iter
    (fun blocker ->
      let doc = integrate blocker in
      check Alcotest.string
        (Printf.sprintf "fig2 byte-identical under %s" (Blocking.describe blocker))
        ref_bytes
        (Codec.to_string ~indent:2 doc))
    [
      Blocking.key ~field:"nm" ();
      Blocking.qgram ~field:"nm" ();
      Blocking.sorted_neighbourhood ~field:"nm" ();
    ]

(* §VI "typical conditions" under blocker presets: clusters, verdict
   tallies and the merged document are pinned to the All_pairs baseline —
   only the pair accounting may differ. The presets are chosen to be
   recall-safe for the full rule set: key on year (the year rule calls any
   year mismatch Different), q-gram on title at a threshold below the
   title rule's Different cut-off, and a sorted neighbourhood on title
   (the two undecided pairs have near-identical titles, hence adjacent
   sort positions). *)
let test_typical_pinned_under_blockers () =
  let wl = Workloads.typical () in
  let a = Workloads.mpeg7_doc wl and b = Workloads.imdb_doc wl in
  let run blocker =
    let cfg =
      Integrate.config ~oracle:Rulesets.full.oracle ~reconcile:Rulesets.full.reconcile
        ~dtd:wl.dtd ~factorize:true ~blocker ()
    in
    match Integrate.integrate_traced cfg a b, Integrate.stats cfg a b with
    | Ok (doc, trace), Ok s -> (Codec.to_string ~indent:2 doc, trace, s)
    | Error e, _ | _, Error e -> Alcotest.failf "typical failed: %a" Integrate.pp_error e
  in
  let ref_bytes, ref_trace, ref_stats = run Blocking.All_pairs in
  check Alcotest.int "baseline: two undecided pairs" 2 ref_trace.Integrate.unsure_pairs;
  check (Alcotest.float 0.) "baseline: four worlds" 4. ref_stats.Integrate.worlds;
  List.iter
    (fun blocker ->
      let name = Blocking.describe blocker in
      let bytes, trace, s = run blocker in
      check Alcotest.string (name ^ ": byte-identical document") ref_bytes bytes;
      check Alcotest.int (name ^ ": same clusters") ref_trace.Integrate.cluster_count
        trace.Integrate.cluster_count;
      check Alcotest.int (name ^ ": same forced matches") ref_trace.Integrate.same_pairs
        trace.Integrate.same_pairs;
      check Alcotest.int (name ^ ": same undecided pairs") ref_trace.Integrate.unsure_pairs
        trace.Integrate.unsure_pairs;
      check (Alcotest.float 1e-6) (name ^ ": same nodes") ref_stats.Integrate.nodes
        s.Integrate.nodes;
      check (Alcotest.float 1e-6) (name ^ ": same worlds") ref_stats.Integrate.worlds
        s.Integrate.worlds;
      (* the full grid is always accounted, whatever was skipped *)
      check Alcotest.int (name ^ ": same pairs generated")
        ref_trace.Integrate.pairs_generated trace.Integrate.pairs_generated)
    [
      Blocking.key ~field:"year" ();
      Blocking.qgram ~field:"title" ~threshold:0.25 ();
      Blocking.sorted_neighbourhood ~field:"title" ();
    ]

(* Regression for the pair-accounting fix: generated / compared / blocked
   must stay consistent with and without a candidate index ([blocker],
   skipped cells are never evaluated). *)
let test_blocking_counter_consistency () =
  let a, b = Addressbook.larger 30 5 in
  let oracle =
    Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  let run ?blocker () =
    let cfg = Integrate.config ~oracle ~dtd:Addressbook.dtd ~factorize:true ?blocker () in
    match Integrate.stats cfg a b with
    | Ok s -> s
    | Error e -> Alcotest.failf "stats failed: %a" Integrate.pp_error e
  in
  let tr (s : Integrate.summary) = s.Integrate.trace in
  let plain = run () in
  let t0 = tr plain in
  check Alcotest.int "no index: every generated pair is compared"
    t0.Integrate.pairs_generated t0.Integrate.pairs_compared;
  check Alcotest.int "no blocking at all: blocked = 0" 0 t0.Integrate.pairs_blocked;
  (* index-level blocking skips the cell without evaluating it *)
  let key_nm = Blocking.key ~field:"nm" () in
  let idx = run ~blocker:key_nm () in
  let t2 = tr idx in
  check Alcotest.int "index keeps the full grid accounted"
    t0.Integrate.pairs_generated t2.Integrate.pairs_generated;
  check Alcotest.bool "index skipped pairs" true
    (t2.Integrate.pairs_compared < t2.Integrate.pairs_generated);
  check Alcotest.int "every skipped pair is reported blocked"
    (t2.Integrate.pairs_generated - t2.Integrate.pairs_compared)
    t2.Integrate.pairs_blocked;
  (* and none of it changed the result *)
  check (Alcotest.float 1e-6) "blocker: nodes unchanged" plain.Integrate.nodes
    idx.Integrate.nodes;
  check (Alcotest.float 1e-6) "blocker: worlds unchanged" plain.Integrate.worlds
    idx.Integrate.worlds

(* ---- mid-fold failure atomicity ------------------------------------------- *)

(* Regression for the batch engine's atomicity contract: a source failing
   mid-fold (here: the third source's root does not match) must surface as
   a clean typed Error and leave the shared decision cache holding only
   sound individual verdicts — never partial fold state. A rerun over good
   sources with the surviving cache must be identical to a fresh run. *)
let test_integrate_many_mid_fold_atomicity () =
  let book suffix =
    parse
      (Printf.sprintf
         "<addressbook><person><nm>Alice</nm><tel>111%s</tel></person>\
          <person><nm>Bob</nm><tel>222%s</tel></person></addressbook>"
         suffix suffix)
  in
  let good = [ book ""; book "x"; book "y" ] in
  let bad = [ book ""; book "x"; parse "<phonebook><p>oops</p></phonebook>" ] in
  let fresh =
    match Imprecise.integrate_many good with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "fresh fold failed: %a" Integrate.pp_error e
  in
  let decisions = Imprecise.Decision_cache.create () in
  (match Imprecise.integrate_many ~decisions bad with
  | Ok _ -> Alcotest.fail "a mid-fold root mismatch must fail the fold"
  | Error (Integrate.Root_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e);
  (* the cache survived the failed fold with only sound verdicts: reusing
     it reproduces the fresh result exactly ... *)
  (match Imprecise.integrate_many ~decisions good with
  | Ok doc -> check Alcotest.bool "reused cache, identical result" true (Pxml.equal fresh doc)
  | Error e -> Alcotest.failf "rerun over the surviving cache failed: %a" Integrate.pp_error e);
  (* ... and a second reuse is served from the cache, not the Oracle *)
  let count name = Imprecise.Obs.Metrics.count (Imprecise.Obs.Metrics.counter name) in
  let decided0 = count "oracle.decisions" in
  (match Imprecise.integrate_many ~decisions good with
  | Ok doc -> check Alcotest.bool "cached rerun still identical" true (Pxml.equal fresh doc)
  | Error e -> Alcotest.failf "cached rerun failed: %a" Integrate.pp_error e);
  check Alcotest.int "no fresh Oracle decisions on the cached rerun" decided0
    (count "oracle.decisions")

(* Keys are built once and carry their structural hash, so a probe never
   re-hashes its trees; equality is as written. The keys a verdict was
   stored under hit on a hash and a pointer check, fresh deep-equal copies
   hash alike and hit, and trees that differ anywhere as written (a deep
   leaf, an attribute, whitespace the canonical form would drop) miss. *)
let test_decision_cache_hit_does_not_retraverse () =
  (* [deep ?leaf tag n] is [n] nested [tag] elements around a [leaf]
     text, every string allocated afresh *)
  let deep ?(leaf = "x") tag n =
    let fresh s = Bytes.to_string (Bytes.of_string s) in
    let rec go i acc = if i = 0 then acc else go (i - 1) (Tree.element (fresh tag) [ acc ]) in
    go n (Tree.leaf (fresh "leaf") (fresh leaf))
  in
  let module Dc = Imprecise.Decision_cache in
  let a = Dc.key (deep "a" 300) and b = Dc.key (deep "b" 300) in
  let cache = Dc.create () in
  Dc.add cache a b (Imprecise.Oracle.Unsure 0.5);
  let found a' b' =
    match Dc.find cache a' b' with
    | Some (Imprecise.Oracle.Unsure p) -> p = 0.5
    | Some _ -> Alcotest.fail "wrong verdict"
    | None -> false
  in
  for _ = 1 to 100 do
    check Alcotest.bool "repeat find hits" true (found a b)
  done;
  let a' = Dc.key (deep "a" 300) and b' = Dc.key (deep "b" 300) in
  check Alcotest.int "fresh copies hash alike (left)" (Dc.key_hash a) (Dc.key_hash a');
  check Alcotest.int "fresh copies hash alike (right)" (Dc.key_hash b) (Dc.key_hash b');
  check Alcotest.bool "fresh deep-equal copies hit" true (found a' b');
  check Alcotest.bool "a different deep leaf misses" false
    (found (Dc.key (deep ~leaf:"y" "a" 300)) b);
  check Alcotest.bool "one more attribute misses" false
    (found a (Dc.key (Tree.element ~attrs:[ ("k", "v") ] "b" [ deep "b" 299 ])));
  (* equal under Tree.equal's canonical form, different as written *)
  let spaced =
    Tree.element "b" [ Tree.text " "; Tree.leaf "leaf" "x"; Tree.text "\n" ]
  and plain = Tree.element "b" [ Tree.leaf "leaf" "x" ] in
  check Alcotest.bool "canonically equal" true (Tree.equal spaced plain);
  Dc.add cache a (Dc.key plain) (Imprecise.Oracle.Unsure 0.5);
  check Alcotest.bool "the raw tree hits" true (found a (Dc.key plain));
  check Alcotest.bool "raw whitespace text misses" false (found a (Dc.key spaced))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q p = QCheck_alcotest.to_alcotest p in
  [
    ( "integrate.matching",
      [
        t "counts on complete bipartite graphs" test_matching_counts;
        t "probabilities normalised" test_matching_probabilities_sum;
        t "forced edges" test_matching_forced;
        t "infeasible forced edges" test_matching_infeasible;
        t "enumeration limit" test_matching_limit;
        t "cluster decomposition" test_clusters;
        t "graph from verdicts" test_graph_from_verdicts;
      ] );
    ( "integrate.fig2",
      [
        t "three worlds with the right probabilities" test_fig2_worlds;
        t "without DTD the two-phone world survives" test_fig2_without_dtd;
        t "world combination count" test_fig2_matches_paper_tree;
      ] );
    ( "integrate.semantics",
      [
        t "integrating a document with itself is identity" test_identical_documents_merge;
        t "all-different oracle concatenates" test_all_different_concatenates;
        t "symmetric world distribution" test_symmetry_up_to_worlds;
        t "empty collections" test_empty_collections;
        t "root mismatch" test_root_mismatch;
        t "mixed content rejected" test_mixed_content_rejected;
        t "text conflicts become choices" test_text_conflict;
        t "value conflict weights" test_value_conflict_weights;
        t "reconcile hook" test_reconcile_hook;
        t "attribute conflicts become element choices" test_attribute_conflict;
        t "structural conflicts become alternatives" test_structural_conflict_alternatives;
        t "oracle conflict propagates" test_oracle_conflict_propagates;
        t "sibling-distinctness violation propagates" test_infeasible_propagates;
        t "possibility cap enforced" test_too_large;
        t "adjacent text children read as canonical" test_adjacent_text_is_canonical;
      ] );
    ( "integrate.factorize",
      [
        t "same world distribution" test_factorize_same_distribution;
        t "much smaller under confusion" test_factorize_smaller_under_confusion;
      ] );
    ( "integrate.estimator",
      [
        t "mirrors materialiser on named cases" test_stats_mirror;
        q prop_stats_mirror_random;
        q prop_stats_mirror_deeper;
        q prop_integration_valid_and_normalised;
      ] );
    ( "integrate.workloads",
      [
        t "Table 1 is monotone" test_table1_monotone;
        t "estimator matches materialisation on Figure-5 points" test_stats_mirror_figure5_points;
        t "typical conditions: 2 undecided, 4 worlds" test_typical_conditions;
      ] );
    ( "integrate.blocker",
      [
        t "Figure 2 pinned under every blocker" test_fig2_pinned_under_blockers;
        t "typical conditions pinned under blockers" test_typical_pinned_under_blockers;
        t "generated/compared/blocked consistency" test_blocking_counter_consistency;
      ] );
    ( "integrate.resilience",
      [ t "mid-fold failure is atomic" test_integrate_many_mid_fold_atomicity ] );
    ( "integrate.decision_cache",
      [
        t "a cache hit does not re-traverse the trees"
          test_decision_cache_hit_does_not_retraverse;
      ] );
  ]
