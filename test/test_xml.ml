(* Unit and property tests for the XML substrate: tree operations, parser,
   printer round-trips, and the DTD cardinality checker. *)

module Tree = Imprecise.Tree
module Parser = Imprecise.Xml.Parser
module Printer = Imprecise.Xml.Printer
module Dtd = Imprecise.Dtd
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs

let check = Alcotest.check

let parse = Parser.parse_string_exn

let parse_err s =
  match Parser.parse_string s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error _ -> ()

(* ---- tree ---------------------------------------------------------------- *)

let test_constructors () =
  let t = Tree.element "a" ~attrs:[ ("k", "v") ] [ Tree.leaf "b" "x"; Tree.text "y" ] in
  check Alcotest.(option string) "name" (Some "a") (Tree.name t);
  check Alcotest.string "tag" "a" (Tree.tag t);
  check Alcotest.(option string) "attribute" (Some "v") (Tree.attribute t "k");
  check Alcotest.(option string) "missing attribute" None (Tree.attribute t "z");
  check Alcotest.int "children" 2 (List.length (Tree.children t));
  check Alcotest.int "child elements" 1 (List.length (Tree.child_elements t));
  check Alcotest.bool "is_element" true (Tree.is_element t);
  check Alcotest.bool "is_text" true (Tree.is_text (Tree.text "s"))

let test_tag_of_text () =
  match Tree.tag (Tree.text "x") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_find_child () =
  let t = parse "<r><a>1</a><b>2</b><a>3</a></r>" in
  check Alcotest.(option string) "first a" (Some "1")
    (Option.map Tree.text_content (Tree.find_child t "a"));
  check Alcotest.int "all a" 2 (List.length (Tree.find_children t "a"));
  check Alcotest.(option string) "missing" None
    (Option.map Tree.text_content (Tree.find_child t "zz"))

let test_text_content () =
  let t = parse "<r>a<b>c<d>e</d></b>f</r>" in
  check Alcotest.string "document-order text" "acef" (Tree.text_content t)

let test_field () =
  let t = parse "<movie><title>  Jaws   2 </title></movie>" in
  check Alcotest.(option string) "normalised" (Some "Jaws 2") (Tree.field t "title")

let test_normalize_space () =
  check Alcotest.string "collapse" "a b c" (Tree.normalize_space "  a \t b \n  c  ");
  check Alcotest.string "empty" "" (Tree.normalize_space "   \n ");
  check Alcotest.string "identity" "x" (Tree.normalize_space "x")

let test_canonical_attrs_sorted () =
  let a = parse {|<r b="2" a="1"/>|} and b = parse {|<r a="1" b="2"/>|} in
  check Alcotest.bool "attr order irrelevant" true (Tree.deep_equal a b)

let test_canonical_ws () =
  let a = parse "<r>\n  <a>x</a>\n  <b>y</b>\n</r>" in
  let b = parse "<r><a>x</a><b>y</b></r>" in
  check Alcotest.bool "indentation irrelevant" true (Tree.deep_equal a b)

let test_canonical_text_merge () =
  let a = Tree.element "r" [ Tree.text "a"; Tree.text "b" ] in
  let b = Tree.element "r" [ Tree.text "ab" ] in
  check Alcotest.bool "adjacent text merged" true (Tree.deep_equal a b)

let test_deep_equal_negative () =
  check Alcotest.bool "different tag" false
    (Tree.deep_equal (parse "<a/>") (parse "<b/>"));
  check Alcotest.bool "different text" false
    (Tree.deep_equal (parse "<a>x</a>") (parse "<a>y</a>"));
  check Alcotest.bool "different attrs" false
    (Tree.deep_equal (parse {|<a k="1"/>|}) (parse {|<a k="2"/>|}));
  check Alcotest.bool "child order matters" false
    (Tree.deep_equal (parse "<r><a/><b/></r>") (parse "<r><b/><a/></r>"))

let test_node_count_depth () =
  let t = parse "<r><a>x</a><b><c/></b></r>" in
  (* r, a, "x", b, c *)
  check Alcotest.int "node_count" 5 (Tree.node_count t);
  check Alcotest.int "depth" 3 (Tree.depth t);
  check Alcotest.int "leaf depth" 1 (Tree.depth (parse "<r/>"))

let test_fold_order () =
  let t = parse "<r><a>x</a><b/></r>" in
  let names = List.rev (Tree.fold (fun acc n -> Option.value ~default:"#t" (Tree.name n) :: acc) [] t) in
  check Alcotest.(list string) "document order" [ "r"; "a"; "#t"; "b" ] names

(* ---- parser -------------------------------------------------------------- *)

let test_parse_basic () =
  let t = parse {|<a x="1"><b>hi</b></a>|} in
  check Alcotest.string "tag" "a" (Tree.tag t);
  check Alcotest.(option string) "attr" (Some "1") (Tree.attribute t "x");
  check Alcotest.string "text" "hi" (Tree.text_content t)

let test_parse_self_closing () =
  check Alcotest.int "no children" 0 (List.length (Tree.children (parse "<a/>")));
  check Alcotest.(option string) "attr on self-closing" (Some "2")
    (Tree.attribute (parse {|<a y="2"/>|}) "y")

let test_parse_entities () =
  check Alcotest.string "predefined" "<&>'\""
    (Tree.text_content (parse "<a>&lt;&amp;&gt;&apos;&quot;</a>"));
  check Alcotest.string "decimal" "A" (Tree.text_content (parse "<a>&#65;</a>"));
  check Alcotest.string "hex" "A" (Tree.text_content (parse "<a>&#x41;</a>"));
  check Alcotest.string "utf8" "é" (Tree.text_content (parse "<a>&#233;</a>"))

let test_parse_entities_in_attrs () =
  check Alcotest.(option string) "attr entity" (Some "a<b")
    (Tree.attribute (parse {|<a k="a&lt;b"/>|}) "k")

let test_parse_cdata () =
  check Alcotest.string "cdata" "<not-a-tag/>"
    (Tree.text_content (parse "<a><![CDATA[<not-a-tag/>]]></a>"))

let test_parse_comments_pi_doctype () =
  let t = parse "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]><!-- hi --><r>x<!-- inner -->y</r><!-- bye -->" in
  check Alcotest.string "comments dropped" "xy" (Tree.text_content t)

let test_parse_quotes () =
  check Alcotest.(option string) "single quotes" (Some {|say "hi"|})
    (Tree.attribute (parse {|<a k='say "hi"'/>|}) "k")

let test_parse_errors () =
  parse_err "";
  parse_err "<a>";
  parse_err "<a></b>";
  parse_err "<a><b></a></b>";
  parse_err "<a";
  parse_err "<a k=v/>";
  parse_err {|<a k="1" k="2"/>|};
  parse_err "<a>&unknown;</a>";
  parse_err "<a>x</a><b/>";
  parse_err "text only";
  parse_err "<a>&#xZZ;</a>";
  parse_err "<a><![CDATA[unterminated</a>"

let test_parse_error_position () =
  match Parser.parse_string "<a>\n<b>oops</a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
      check Alcotest.int "line" 2 e.Parser.line;
      check Alcotest.bool "message mentions tags" true
        (Astring_contains.contains e.Parser.message "mismatched")

(* ---- printer ------------------------------------------------------------- *)

let test_print_escapes () =
  let t = Tree.element "a" ~attrs:[ ("k", "a\"b<c") ] [ Tree.text "x<y&z" ] in
  let s = Printer.to_string t in
  check Alcotest.bool "text escaped" true (Astring_contains.contains s "x&lt;y&amp;z");
  check Alcotest.bool "attr escaped" true (Astring_contains.contains s "a&quot;b&lt;c")

let test_print_parse_roundtrip () =
  let t = parse {|<r a="1"><b>x &amp; y</b><c/>tail</r>|} in
  let again = parse (Printer.to_string t) in
  check Alcotest.bool "roundtrip" true (Tree.deep_equal t again)

let test_print_indent_roundtrip () =
  let t = parse "<r><a><b>deep</b></a><c/></r>" in
  let again = parse (Printer.to_string ~indent:2 t) in
  check Alcotest.bool "indented roundtrip" true (Tree.deep_equal t again)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print ∘ parse = id (canonical)" ~count:200
    (QCheck.map (fun seed -> fst (Random_docs.xml (Prng.make seed) ~depth:3)) QCheck.int)
    (fun t ->
      match Parser.parse_string (Printer.to_string t) with
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" (Parser.error_to_string e)
      | Ok t' -> Tree.deep_equal t t')

let prop_parser_no_crash =
  QCheck.Test.make ~name:"parser never raises on garbage" ~count:500
    QCheck.(string_of_size (Gen.int_bound 40))
    (fun s ->
      match Parser.parse_string s with Ok _ | Error _ -> true)

(* ---- dtd ----------------------------------------------------------------- *)

let dtd_of_string s =
  match Dtd.of_string s with
  | Ok d -> d
  | Error msg -> Alcotest.failf "dtd parse failed: %s" msg

let test_dtd_parse () =
  let d = dtd_of_string "person: nm, tel?, addr*\nmovie: title?, year+  # comment" in
  check Alcotest.bool "nm exactly one" true
    (Dtd.occurs d ~parent:"person" ~child:"nm" = Dtd.One);
  check Alcotest.bool "tel max one" true (Dtd.max_one d ~parent:"person" ~child:"tel");
  check Alcotest.bool "addr any" false (Dtd.max_one d ~parent:"person" ~child:"addr");
  check Alcotest.bool "year many" false (Dtd.max_one d ~parent:"movie" ~child:"year");
  check Alcotest.bool "undeclared" false (Dtd.max_one d ~parent:"person" ~child:"x")

let test_dtd_parse_errors () =
  List.iter
    (fun s ->
      match Dtd.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected an error for %S" s)
    [
      "no-colon-here";
      ": tel?";
      "person: nm!, tel?";
      "garbage ::: ??";
      "per son: nm";
      "person: 1st";
      "person: nm tel";
    ]

let test_dtd_validate () =
  let d = dtd_of_string "person: nm, tel?" in
  let ok = parse "<book><person><nm>A</nm><tel>1</tel></person></book>" in
  let missing_nm = parse "<book><person><tel>1</tel></person></book>" in
  let two_tels = parse "<book><person><nm>A</nm><tel>1</tel><tel>2</tel></person></book>" in
  check Alcotest.bool "valid" true (Result.is_ok (Dtd.validate d ok));
  (match Dtd.validate d missing_nm with
  | Error [ v ] ->
      check Alcotest.string "missing child" "nm" v.Dtd.child;
      check Alcotest.int "found 0" 0 v.Dtd.found
  | _ -> Alcotest.fail "expected one violation");
  match Dtd.validate d two_tels with
  | Error [ v ] -> check Alcotest.string "tel violation" "tel" v.Dtd.child
  | _ -> Alcotest.fail "expected one violation"

let test_dtd_roundtrip () =
  let d = dtd_of_string "person: nm, tel?\nmovie: title?, genre*" in
  let d' = dtd_of_string (Dtd.to_string d) in
  check
    Alcotest.(list (triple string string string))
    "declarations survive"
    (List.map (fun (p, c, o) -> (p, c, Dtd.(match o with One -> "1" | Optional -> "?" | Many -> "+" | Any -> "*"))) (Dtd.declarations d))
    (List.map (fun (p, c, o) -> (p, c, Dtd.(match o with One -> "1" | Optional -> "?" | Many -> "+" | Any -> "*"))) (Dtd.declarations d'))

let test_dtd_infer () =
  let docs =
    [
      parse "<book><person><nm>A</nm><tel>1</tel></person><person><nm>B</nm></person></book>";
      parse "<book><person><nm>C</nm><genre>x</genre><genre>y</genre></person></book>";
    ]
  in
  let d = Dtd.infer docs in
  check Alcotest.bool "nm never repeats" true (Dtd.max_one d ~parent:"person" ~child:"nm");
  check Alcotest.bool "tel never repeats" true (Dtd.max_one d ~parent:"person" ~child:"tel");
  check Alcotest.bool "genre repeats" false (Dtd.max_one d ~parent:"person" ~child:"genre");
  check Alcotest.bool "person repeats" false (Dtd.max_one d ~parent:"book" ~child:"person");
  check Alcotest.bool "unseen pair unconstrained" false (Dtd.max_one d ~parent:"x" ~child:"y");
  (* inferred knowledge validates its own witnesses *)
  List.iter (fun doc -> check Alcotest.bool "self-consistent" true (Result.is_ok (Dtd.validate d doc))) docs

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q p = QCheck_alcotest.to_alcotest p in
  [
    ( "xml.tree",
      [
        t "constructors and accessors" test_constructors;
        t "tag of text raises" test_tag_of_text;
        t "find_child / find_children" test_find_child;
        t "text_content in document order" test_text_content;
        t "field is normalised" test_field;
        t "normalize_space" test_normalize_space;
        t "canonical sorts attributes" test_canonical_attrs_sorted;
        t "canonical drops indentation" test_canonical_ws;
        t "canonical merges adjacent text" test_canonical_text_merge;
        t "deep_equal negatives" test_deep_equal_negative;
        t "node_count and depth" test_node_count_depth;
        t "fold visits document order" test_fold_order;
      ] );
    ( "xml.parser",
      [
        t "elements, attributes, text" test_parse_basic;
        t "self-closing" test_parse_self_closing;
        t "entities" test_parse_entities;
        t "entities in attributes" test_parse_entities_in_attrs;
        t "CDATA" test_parse_cdata;
        t "comments, PIs, DOCTYPE skipped" test_parse_comments_pi_doctype;
        t "quote styles" test_parse_quotes;
        t "malformed inputs are errors" test_parse_errors;
        t "error carries position" test_parse_error_position;
        q prop_parser_no_crash;
      ] );
    ( "xml.printer",
      [
        t "escaping" test_print_escapes;
        t "roundtrip" test_print_parse_roundtrip;
        t "indented roundtrip" test_print_indent_roundtrip;
        q prop_print_parse_roundtrip;
      ] );
    ( "xml.dtd",
      [
        t "parse compact form" test_dtd_parse;
        t "parse errors" test_dtd_parse_errors;
        t "validate cardinalities" test_dtd_validate;
        t "to_string / of_string roundtrip" test_dtd_roundtrip;
        t "inference from example documents" test_dtd_infer;
      ] );
  ]
