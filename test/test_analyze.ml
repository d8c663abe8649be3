(* Tests for the static analysis subsystem: diagnostics, path summaries,
   query checks (and the soundness of the empty-query prune), and the
   document linter. *)

module Pxml = Imprecise.Pxml
module Pquery = Imprecise.Pquery
module Diag = Imprecise.Analyze.Diag
module Summary = Imprecise.Analyze.Summary
module Query_check = Imprecise.Analyze.Query_check
module Doc_lint = Imprecise.Analyze.Doc_lint
module Cost = Imprecise.Analyze.Cost
module Plan = Imprecise.Analyze.Plan
module Rule_lint = Imprecise.Analyze.Rule_lint
module Oracle = Imprecise.Oracle
module Obs = Imprecise.Obs

let check = Alcotest.check

let parse = Imprecise.parse_xml_exn

let codes diags = List.map (fun (d : Diag.t) -> d.Diag.code) diags

let has_code c diags = List.mem c (codes diags)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Raw record builders so the linter tests can construct deliberately
   invalid distributions. *)
let raw_dist choices = Pxml.dist_unchecked choices

let raw_choice prob nodes = { Pxml.prob; nodes }

(* Figure 2's address book: one John with an uncertain phone, or two
   distinct persons. *)
let fig2_doc =
  let tel v = Pxml.elem "tel" [ Pxml.certain [ Pxml.text v ] ] in
  let person tel_dist =
    Pxml.elem "person"
      [ Pxml.certain [ Pxml.elem "nm" [ Pxml.certain [ Pxml.text "John" ] ] ]; tel_dist ]
  in
  let uncertain_tel =
    Pxml.dist
      [ Pxml.choice ~prob:0.5 [ tel "1111" ]; Pxml.choice ~prob:0.5 [ tel "2222" ] ]
  in
  Pxml.certain
    [
      Pxml.elem "addressbook"
        [
          Pxml.dist
            [
              Pxml.choice ~prob:0.5 [ person uncertain_tel ];
              Pxml.choice ~prob:0.5
                [ person (Pxml.certain [ tel "1111" ]); person (Pxml.certain [ tel "2222" ]) ];
            ];
        ];
    ]

(* ---- diagnostics framework ---------------------------------------------- *)

let test_diag_severity () =
  check Alcotest.int "empty exit" 0 (Diag.exit_code []);
  let info = Diag.make ~code:"X001" ~severity:Diag.Info "i" in
  let warn = Diag.make ~code:"X002" ~severity:Diag.Warning "w" in
  let err = Diag.make ~code:"X003" ~severity:Diag.Error "e" in
  check Alcotest.int "info exit" 0 (Diag.exit_code [ info ]);
  check Alcotest.int "warning exit" 1 (Diag.exit_code [ info; warn ]);
  check Alcotest.int "error exit" 2 (Diag.exit_code [ warn; err; info ]);
  check Alcotest.bool "worst is error" true (Diag.worst [ warn; err ] = Some Diag.Error);
  check Alcotest.bool "worst of none" true (Diag.worst [] = None)

let test_diag_caret () =
  let d =
    Diag.make
      ~location:(Diag.Query_at { source = "//a[oops"; offset = Some 4 })
      ~code:"Q000" ~severity:Diag.Error "unexpected token"
  in
  match String.split_on_char '\n' (Diag.to_text d) with
  | [ head; src_line; caret_line ] ->
      check Alcotest.bool "head has code" true (contains_sub head "Q000");
      check Alcotest.string "source line" "  in: //a[oops" src_line;
      (* six columns of "  in: " prefix, then the offset *)
      check Alcotest.int "caret column" (6 + 4) (String.index caret_line '^')
  | _ -> Alcotest.fail "expected three lines"

let test_diag_doc_path () =
  let d =
    Diag.make
      ~location:(Diag.Doc_path [ "a"; "prob[1]"; "poss[2]" ])
      ~code:"D005" ~severity:Diag.Warning "w"
  in
  check Alcotest.bool "path rendered" true
    (contains_sub (Diag.to_text d) "/a/prob[1]/poss[2]")

let test_diag_json () =
  let d =
    Diag.make
      ~location:(Diag.Query_at { source = "//x"; offset = Some 2 })
      ~code:"Q001" ~severity:Diag.Error "empty"
  in
  let json = Diag.list_to_json [ d ] in
  match Obs.Json.parse (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "json did not parse back: %s" e
  | Ok (Obs.Json.Obj fields) ->
      check Alcotest.bool "has diagnostics" true (List.mem_assoc "diagnostics" fields);
      check Alcotest.bool "worst is error" true
        (List.assoc "worst" fields = Obs.Json.String "error")
  | Ok _ -> Alcotest.fail "expected an object"

(* ---- path summaries ------------------------------------------------------ *)

let test_summary_of_tree () =
  let s =
    Summary.of_tree (parse "<movies><movie><title>Jaws</title></movie><movie/></movies>")
  in
  check Alcotest.bool "movies path" true (Summary.mem s [ "movies" ]);
  check Alcotest.bool "title path" true (Summary.mem s [ "movies"; "movie"; "title" ]);
  check Alcotest.bool "no ghost path" false (Summary.mem s [ "movies"; "title" ]);
  check (Alcotest.list Alcotest.string) "root labels" [ "movies" ]
    (Summary.labels_under s []);
  check Alcotest.bool "title has text" true
    (Summary.has_text s [ "movies"; "movie"; "title" ]);
  (match Summary.find s [ "movies"; "movie" ] with
  | None -> Alcotest.fail "movie entry missing"
  | Some e ->
      check Alcotest.int "movie instances" 2 e.Summary.instances;
      check Alcotest.bool "movie certain" true e.Summary.certain;
      check Alcotest.int "movie cmin" 2 e.Summary.card.Summary.cmin;
      check Alcotest.int "movie cmax" 2 e.Summary.card.Summary.cmax);
  (* title occurs under only one of the two movie instances *)
  match Summary.find s [ "movies"; "movie"; "title" ] with
  | None -> Alcotest.fail "title entry missing"
  | Some e ->
      check Alcotest.int "title cmin" 0 e.Summary.card.Summary.cmin;
      check Alcotest.int "title cmax" 1 e.Summary.card.Summary.cmax;
      check Alcotest.bool "title not certain" false e.Summary.certain

let test_summary_of_doc () =
  let s = Summary.of_doc fig2_doc in
  check Alcotest.bool "person path" true (Summary.mem s [ "addressbook"; "person" ]);
  check Alcotest.bool "tel path" true (Summary.mem s [ "addressbook"; "person"; "tel" ]);
  check Alcotest.bool "no email" false (Summary.mem s [ "addressbook"; "person"; "email" ]);
  (match Summary.find s [ "addressbook" ] with
  | Some e -> check Alcotest.bool "addressbook certain" true e.Summary.certain
  | None -> Alcotest.fail "addressbook missing");
  (* person count varies between the two branches: 1 or 2 *)
  match Summary.find s [ "addressbook"; "person" ] with
  | Some e ->
      check Alcotest.int "person cmin" 1 e.Summary.card.Summary.cmin;
      check Alcotest.int "person cmax" 2 e.Summary.card.Summary.cmax
  | None -> Alcotest.fail "person missing"

let test_summary_zero_prob_is_possible () =
  (* A zero-probability choice still counts as possible: the
     over-approximation must not depend on probabilities. *)
  let d =
    Pxml.certain
      [
        Pxml.elem "r"
          [
            raw_dist
              [
                raw_choice 1. [ Pxml.elem "a" [] ]; raw_choice 0. [ Pxml.elem "ghost" [] ];
              ];
          ];
      ]
  in
  let s = Summary.of_doc d in
  check Alcotest.bool "ghost recorded" true (Summary.mem s [ "r"; "ghost" ])

let test_summary_merge () =
  let a = Summary.of_tree (parse "<r><x>1</x></r>") in
  let b = Summary.of_tree (parse "<r><y/></r>") in
  let m = Summary.merge a b in
  check Alcotest.bool "x possible" true (Summary.mem m [ "r"; "x" ]);
  check Alcotest.bool "y possible" true (Summary.mem m [ "r"; "y" ]);
  (match Summary.find m [ "r"; "x" ] with
  | Some e ->
      check Alcotest.int "x cmin drops" 0 e.Summary.card.Summary.cmin;
      check Alcotest.bool "x no longer certain" false e.Summary.certain
  | None -> Alcotest.fail "x missing");
  (* merging with the neutral element changes nothing *)
  let m0 = Summary.merge Summary.empty a in
  check
    Alcotest.(list (list string))
    "empty is neutral" (Summary.paths a) (Summary.paths m0)

(* ---- query static analysis ----------------------------------------------- *)

let summary = Summary.of_doc fig2_doc

let empty_q q =
  match Imprecise.Xpath.Parser.parse q with
  | Ok e -> Query_check.statically_empty ~summary e
  | Error m -> Alcotest.failf "parse %s: %s" q m

let test_statically_empty_positive () =
  List.iter
    (fun q -> check Alcotest.bool q true (empty_q q))
    [
      "//email";
      "//person/email";
      "/addressbook/nm" (* nm is below person, not addressbook *);
      "//tel/text()/tel" (* text has no element children *);
      "//person[false()]";
      "//person[0]" (* positions start at 1 *);
      "//tel/@missing" (* no attributes anywhere in fig2 *);
      "//person[.//email]/nm";
      "//email | //person/fax";
      "/addressbook/person/nm/parent::tel" (* nm's parent is person *);
      (* boolean coercions of a provably empty node-set (Q001 widening):
         existential comparisons and explicit boolean() / exists() /
         some-quantifier wrappers are all false over the empty set *)
      "//person[boolean(.//email)]";
      "//person[exists(.//email)]";
      {|//person[.//email = "x"]/nm|};
      {|//person[some $e in .//email satisfies $e = "x"]|};
    ]

let test_statically_empty_negative () =
  List.iter
    (fun q -> check Alcotest.bool q false (empty_q q))
    [
      "//person/tel";
      "/addressbook/person";
      "//person[1]";
      "//person[nm]";
      "//nm/text()";
      "//person/..";
      "count(//email)" (* atomic result: one value per world, never empty *);
      "some $t in //tel satisfies $t = \"1111\"";
      "//person[$x]" (* unbound var raises at eval; must not be pruned *);
      (* boolean-coercion widening must stay conservative: not(∅) is true,
         count(∅)=0 compares equal to 0, and comparing a node-set against a
         boolean coerces the node-set first (∅ != true() is true) *)
      "//person[not(.//email)]";
      "//person[count(.//email) = 0]";
      "//person[.//email != true()]";
      "//person[every $e in .//email satisfies $e = \"x\"]" (* every over ∅ *);
    ]

let test_check_codes () =
  let diags_of q = Query_check.check_string ~summary q in
  check Alcotest.bool "Q000 on syntax error" true (has_code "Q000" (diags_of "//a["));
  check Alcotest.bool "Q001 on empty" true (has_code "Q001" (diags_of "//email"));
  check Alcotest.bool "Q002 on unknown fn" true
    (has_code "Q002" (diags_of "//person[frob(.)]"));
  check Alcotest.bool "Q003 on unbound var" true
    (has_code "Q003" (diags_of "//person[$x = 1]"));
  check Alcotest.bool "no Q003 for bound var" false
    (has_code "Q003" (diags_of "some $t in //tel satisfies $t = \"1111\""));
  check Alcotest.bool "Q004 on constant cmp" true
    (has_code "Q004" (diags_of "//person[1 = 2]"));
  check Alcotest.bool "Q004 on empty-side cmp" true
    (has_code "Q004" (diags_of "//person[.//email = \"x\"]"));
  check Alcotest.bool "Q005 on dead union branch" true
    (has_code "Q005" (diags_of "//person/tel | //person/fax"));
  check (Alcotest.list Alcotest.string) "clean query" [] (codes (diags_of "//person/tel"))

let test_check_without_summary () =
  (* No shape information: emptiness cannot be judged, shape-free checks
     still fire. *)
  check (Alcotest.list Alcotest.string) "no summary, no findings" []
    (codes (Query_check.check_string "//whatever/zzz"));
  check Alcotest.bool "unknown fn still caught" true
    (has_code "Q002" (Query_check.check_string "frob(22)"))

let test_q000_offset () =
  match Query_check.check_string ~summary "//person[" with
  | [ { Diag.location = Diag.Query_at { offset = Some off; _ }; code; _ } ] ->
      check Alcotest.string "code" "Q000" code;
      check Alcotest.int "offset at eof" 9 off
  | _ -> Alcotest.fail "expected exactly one located Q000"

(* The prune must agree with ground truth: ranking with the check on
   equals ranking with it off, and flagged-empty queries rank to []. *)
let test_prune_soundness () =
  List.iter
    (fun q ->
      let pruned = Pquery.rank ~strategy:Pquery.Enumerate_only fig2_doc q in
      let full =
        Pquery.rank ~strategy:Pquery.Enumerate_only ~static_check:false fig2_doc q
      in
      check Alcotest.int (q ^ ": same answer count") (List.length full)
        (List.length pruned);
      if empty_q q then check Alcotest.int (q ^ ": truly empty") 0 (List.length full))
    [ "//person/tel"; "//person/email"; "//nm"; "//email"; "//person[.//email]/nm" ]

(* ---- document linter ----------------------------------------------------- *)

let test_lint_fig2 () =
  (* Fig. 2 carries adjacent certain probability nodes (nm then tel), an
     Info-level hint — but nothing at Warning or above. *)
  let diags = Doc_lint.lint fig2_doc in
  check Alcotest.int "exit code" 0 (Diag.exit_code diags);
  check Alcotest.bool "only D008" true
    (List.for_all (fun (d : Diag.t) -> d.Diag.code = "D008") diags)

let test_lint_findings () =
  let zero =
    Pxml.certain [ Pxml.elem "r" [ raw_dist [ raw_choice 1.0 []; raw_choice 0.0 [] ] ] ]
  in
  check Alcotest.bool "D005 zero prob" true (has_code "D005" (Doc_lint.lint zero));
  let dup =
    Pxml.certain
      [
        Pxml.elem "r"
          [ raw_dist [ raw_choice 0.5 [ Pxml.text "x" ]; raw_choice 0.5 [ Pxml.text "x" ] ] ];
      ]
  in
  check Alcotest.bool "D006 deep-equal" true (has_code "D006" (Doc_lint.lint dup));
  let bad_sum = raw_dist [ raw_choice 0.5 []; raw_choice 0.2 [] ] in
  check Alcotest.bool "D003 bad sum" true (has_code "D003" (Doc_lint.lint bad_sum));
  let drift = raw_dist [ raw_choice 0.5 []; raw_choice (0.5 +. 1e-7) [] ] in
  check Alcotest.bool "D004 drift" true (has_code "D004" (Doc_lint.lint drift));
  let out_of_range = raw_dist [ raw_choice 1.5 []; raw_choice (-0.5) [] ] in
  check Alcotest.bool "D001 out of range" true
    (has_code "D001" (Doc_lint.lint out_of_range));
  let empty_dist = Pxml.certain [ Pxml.elem "r" [ raw_dist [] ] ] in
  check Alcotest.bool "D002 no possibilities" true
    (has_code "D002" (Doc_lint.lint empty_dist));
  let reserved = Pxml.certain [ Pxml.elem "p:poss" [] ] in
  check Alcotest.bool "D007 reserved tag" true (has_code "D007" (Doc_lint.lint reserved));
  let degenerate =
    Pxml.certain
      [ Pxml.elem "r" [ Pxml.certain [ Pxml.text "a" ]; Pxml.certain [ Pxml.text "b" ] ] ]
  in
  check Alcotest.bool "D008 adjacent certain" true
    (has_code "D008" (Doc_lint.lint degenerate))

let test_lint_locations () =
  let zero =
    Pxml.certain [ Pxml.elem "r" [ raw_dist [ raw_choice 1.0 []; raw_choice 0.0 [] ] ] ]
  in
  match List.find_opt (fun (d : Diag.t) -> d.Diag.code = "D005") (Doc_lint.lint zero) with
  | Some { Diag.location = Diag.Doc_path path; _ } ->
      check (Alcotest.list Alcotest.string) "path components"
        [ "prob[1]"; "poss[1]"; "r"; "prob[1]"; "poss[2]" ]
        path
  | _ -> Alcotest.fail "D005 with a Doc_path expected"

(* ---- static query planner ------------------------------------------------ *)

let plan_q ?(s = summary) q =
  match Imprecise.Xpath.Parser.parse q with
  | Ok e -> Plan.plan ~summary:s ~source:q e
  | Error m -> Alcotest.failf "parse %s: %s" q m

let check_cost name (p : Plan.t) ~worlds ~answers_lo ~answers_hi ~pw_lo ~pw_hi =
  let f = Alcotest.float 0. in
  check f (name ^ ": worlds") worlds p.Plan.cost.Cost.worlds;
  check f (name ^ ": answers.lo") answers_lo p.Plan.cost.Cost.answers.Cost.lo;
  check f (name ^ ": answers.hi") answers_hi p.Plan.cost.Cost.answers.Cost.hi;
  check f (name ^ ": per_world.lo") pw_lo p.Plan.cost.Cost.per_world.Cost.lo;
  check f (name ^ ": per_world.hi") pw_hi p.Plan.cost.Cost.per_world.Cost.hi

(* Golden pins for Figure 2: route and bound values are part of the
   planner's contract, not incidental output. *)
let test_plan_fig2 () =
  let p = plan_q "//person/tel" in
  check Alcotest.bool "route direct" true (p.Plan.route = Plan.Direct);
  check Alcotest.int "no fallback reasons" 0 (List.length p.Plan.reasons);
  check Alcotest.bool "obligations discharged" true (p.Plan.obligations <> []);
  (* 3 worlds; 4 tel instances across the representation; every world has
     1 or 2 tels and at least one (tel is certain under every person) *)
  check_cost "//person/tel" p ~worlds:3. ~answers_lo:1. ~answers_hi:4. ~pw_lo:1.
    ~pw_hi:2.;
  (* widened admissions route direct too *)
  List.iter
    (fun q ->
      let p = plan_q q in
      check Alcotest.bool (q ^ " routes direct") true (p.Plan.route = Plan.Direct))
    [
      "/descendant::person/tel";
      "//person[contains(nm,\"Jo\")]/tel";
      "//person/tel[1]";
      "//person/nm/text()";
      "addressbook/person/tel";
    ];
  (* positional test on the binder itself stays out: P004, enumerate *)
  let p = plan_q "//person[1]/tel" in
  check Alcotest.bool "P004 route" true (p.Plan.route = Plan.Enumerate);
  check (Alcotest.list Alcotest.string) "P004 reason" [ "P004" ] (codes p.Plan.reasons);
  (* non-paths fall back with P001 and the untracked world-bound cost *)
  let p = plan_q "count(//person)" in
  check Alcotest.bool "P001 route" true (p.Plan.route = Plan.Enumerate);
  check (Alcotest.list Alcotest.string) "P001 reason" [ "P001" ] (codes p.Plan.reasons);
  check Alcotest.bool "P001 untracked" false p.Plan.cost.Cost.tracked

(* The §VI movie demo document, reduced: one movie, uncertain genre. *)
let movies_doc =
  let leaf tag v = Pxml.elem tag [ Pxml.certain [ Pxml.text v ] ] in
  Pxml.certain
    [
      Pxml.elem "movies"
        [
          Pxml.certain
            [
              Pxml.elem "movie"
                [
                  Pxml.certain [ leaf "title" "Jaws" ];
                  Pxml.dist
                    [
                      Pxml.choice ~prob:0.8 [ leaf "genre" "Horror" ];
                      Pxml.choice ~prob:0.2 [ leaf "genre" "Thriller" ];
                    ];
                ];
            ];
        ];
    ]

let test_plan_section_vi () =
  let s = Summary.of_doc movies_doc in
  let p = plan_q ~s {|//movie[.//genre="Horror"]/title|} in
  check Alcotest.bool "Q1 direct" true (p.Plan.route = Plan.Direct);
  (* 2 worlds; 1 title in the representation; the predicate voids any
     lower bound *)
  check_cost "Q1" p ~worlds:2. ~answers_lo:0. ~answers_hi:1. ~pw_lo:0. ~pw_hi:1.;
  let p = plan_q ~s {|//movie[some $d in .//director satisfies contains($d,"John")]/title|} in
  check Alcotest.bool "Q2 direct" true (p.Plan.route = Plan.Direct);
  let p = plan_q ~s "//movie/genre" in
  check Alcotest.bool "genre direct" true (p.Plan.route = Plan.Direct);
  (* both genre instances are distinct representation nodes, one per world *)
  check_cost "//movie/genre" p ~worlds:2. ~answers_lo:1. ~answers_hi:2. ~pw_lo:1.
    ~pw_hi:1.

let test_plan_nested_binder () =
  (* //a occurrences nest: the planner must prove P005 and enumerate,
     exactly as Direct would have refused dynamically. *)
  let s = Summary.of_tree (parse "<r><a><a/></a></r>") in
  let p = plan_q ~s "//a" in
  check Alcotest.bool "P005 route" true (p.Plan.route = Plan.Enumerate);
  check (Alcotest.list Alcotest.string) "P005 reason" [ "P005" ] (codes p.Plan.reasons)

(* ---- rule-set lint ------------------------------------------------------- *)

let test_rule_lint () =
  let a = parse "<m><t>Jaws</t></m>" and b = parse "<m><t>Jaws 2</t></m>" in
  let probes = [ (a, b) ] in
  let fires_always =
    { Oracle.name = "always"; judge = (fun _ _ -> Some (Oracle.Unsure 0.5)) }
  in
  let shadowed =
    { Oracle.name = "shadowed"; judge = (fun _ _ -> Some Oracle.Same) }
  in
  (* R003: "shadowed" fires on the probe, but "always" already fired *)
  let diags = Rule_lint.check ~probes (Oracle.make [ fires_always; shadowed ]) in
  check Alcotest.bool "R003 fires" true (has_code "R003" diags);
  (* R004: a rule that inspects only its first argument is asymmetric *)
  let asym =
    { Oracle.name = "asym"; judge = (fun x _ -> if x == a then Some Oracle.Same else None) }
  in
  let diags = Rule_lint.check ~probes (Oracle.make [ asym ]) in
  check Alcotest.bool "R004 fires" true (has_code "R004" diags);
  (* clean: a symmetric rule that fires alone *)
  check (Alcotest.list Alcotest.string) "clean ruleset" []
    (codes (Rule_lint.check ~probes (Oracle.make [ Oracle.deep_equal_rule; asym ])
           |> List.filter (fun (d : Diag.t) -> d.Diag.code = "R003")));
  check (Alcotest.list Alcotest.string) "symmetric rule ok" []
    (codes (Rule_lint.check ~probes (Oracle.make [ fires_always ])));
  (* never-firing rules are not "unreachable": the probe set just missed
     them, and R003 must not cry wolf *)
  let never = { Oracle.name = "never"; judge = (fun _ _ -> None) } in
  check (Alcotest.list Alcotest.string) "abstainer ok" []
    (codes (Rule_lint.check ~probes (Oracle.make [ fires_always; never ])))

(* ---- diagnostic JSON offset uniformity ----------------------------------- *)

let offset_of (d : Diag.t) =
  match Diag.to_json d with
  | Obs.Json.Obj fields -> (
      match List.assoc "location" fields with
      | Obs.Json.Obj lf -> List.assoc_opt "offset" lf
      | _ -> None)
  | _ -> None

let test_offset_shape () =
  (* every located diagnostic carries an "offset" key: a real character
     offset for Q-codes, null for D/R/P-codes *)
  let q0 =
    Diag.make
      ~location:(Diag.Query_at { source = "//a["; offset = Some 4 })
      ~code:"Q000" ~severity:Diag.Error "syntax"
  in
  let d5 = Diag.make ~location:(Diag.Doc_path [ "r" ]) ~code:"D005" ~severity:Diag.Warning "w" in
  let p4 =
    Diag.make
      ~location:(Diag.Query_at { source = "//a[1]"; offset = None })
      ~code:"P004" ~severity:Diag.Info "i"
  in
  check Alcotest.bool "Q000 offset is an int" true (offset_of q0 = Some (Obs.Json.Int 4));
  check Alcotest.bool "D005 offset is null" true (offset_of d5 = Some Obs.Json.Null);
  check Alcotest.bool "P004 offset is null" true (offset_of p4 = Some Obs.Json.Null);
  (* planner reasons inherit the shape *)
  let p = plan_q "//person[1]/tel" in
  match p.Plan.reasons with
  | [ r ] -> check Alcotest.bool "P-code reason offset null" true (offset_of r = Some Obs.Json.Null)
  | _ -> Alcotest.fail "expected one reason"

let suite =
  [
    ( "analyze.diag",
      [
        Alcotest.test_case "severity and exit codes" `Quick test_diag_severity;
        Alcotest.test_case "caret rendering" `Quick test_diag_caret;
        Alcotest.test_case "document path rendering" `Quick test_diag_doc_path;
        Alcotest.test_case "json round-trip" `Quick test_diag_json;
      ] );
    ( "analyze.summary",
      [
        Alcotest.test_case "of_tree" `Quick test_summary_of_tree;
        Alcotest.test_case "of_doc (fig2)" `Quick test_summary_of_doc;
        Alcotest.test_case "zero-probability choices are possible" `Quick
          test_summary_zero_prob_is_possible;
        Alcotest.test_case "merge" `Quick test_summary_merge;
      ] );
    ( "analyze.query",
      [
        Alcotest.test_case "statically empty: positives" `Quick
          test_statically_empty_positive;
        Alcotest.test_case "statically empty: negatives" `Quick
          test_statically_empty_negative;
        Alcotest.test_case "diagnostic codes" `Quick test_check_codes;
        Alcotest.test_case "without a summary" `Quick test_check_without_summary;
        Alcotest.test_case "syntax error offset" `Quick test_q000_offset;
        Alcotest.test_case "prune soundness vs ground truth" `Quick test_prune_soundness;
      ] );
    ( "analyze.doc_lint",
      [
        Alcotest.test_case "fig2 is info-only" `Quick test_lint_fig2;
        Alcotest.test_case "every code fires" `Quick test_lint_findings;
        Alcotest.test_case "locations" `Quick test_lint_locations;
      ] );
    ( "analyze.plan",
      [
        Alcotest.test_case "fig2 golden plans" `Quick test_plan_fig2;
        Alcotest.test_case "section VI golden plans" `Quick test_plan_section_vi;
        Alcotest.test_case "nested binder falls back (P005)" `Quick
          test_plan_nested_binder;
        Alcotest.test_case "json offset uniformity" `Quick test_offset_shape;
      ] );
    ( "analyze.rule_lint",
      [ Alcotest.test_case "R003/R004" `Quick test_rule_lint ] );
  ]
