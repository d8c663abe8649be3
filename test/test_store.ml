(* Tests for the document store: CRUD, name validation, and crash-safe
   persistence of both certain and probabilistic documents. The fault-
   injection crash matrix lives in test_crash.ml (dune alias @crash). *)

module Store = Imprecise.Store
module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Addressbook = Imprecise.Data.Addressbook

let check = Alcotest.check

let tree = Imprecise.parse_xml_exn "<catalog><item>x</item></catalog>"

let pdoc =
  let cfg =
    Integrate.config ~oracle:(Oracle.make [ Oracle.deep_equal_rule ]) ~dtd:Addressbook.dtd ()
  in
  Result.get_ok (Integrate.integrate cfg Addressbook.source_a Addressbook.source_b)

(* Every test gets its own directory so salvage-mode quarantines cannot
   leak between tests or runs. *)
let dir_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "imprecise-store-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  dir

let write_raw dir name content =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir name) in
  output_string oc content;
  close_out oc

let save_exn s dir =
  match Store.save s ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg

let load_exn ?mode ?quarantine dir =
  match Store.load ?mode ?quarantine dir with
  | Ok (s, report) -> (s, report)
  | Error msg -> Alcotest.failf "load failed: %s" msg

let dir_has dir pred = Array.exists pred (Sys.readdir dir)

let test_crud () =
  let s = Store.create () in
  check Alcotest.int "empty" 0 (Store.size s);
  Store.put s "catalog" (Store.Certain tree);
  Store.put s "john" (Store.Probabilistic pdoc);
  check Alcotest.int "two docs" 2 (Store.size s);
  check Alcotest.(list string) "insertion order" [ "catalog"; "john" ] (Store.names s);
  check Alcotest.bool "mem" true (Store.mem s "catalog");
  (match Store.get_certain s "catalog" with
  | Some t -> check Alcotest.bool "same tree" true (Tree.deep_equal tree t)
  | None -> Alcotest.fail "missing");
  check Alcotest.bool "typed getter mismatches" true (Store.get_certain s "john" = None);
  (match Store.get_probabilistic s "john" with
  | Some d -> check Alcotest.bool "same doc" true (Pxml.equal pdoc d)
  | None -> Alcotest.fail "missing");
  Store.put s "catalog" (Store.Certain (Tree.element "catalog" []));
  check Alcotest.int "replace keeps size" 2 (Store.size s);
  Store.remove s "catalog";
  check Alcotest.bool "removed" false (Store.mem s "catalog");
  check Alcotest.(list string) "order updated" [ "john" ] (Store.names s)

let test_name_validation () =
  let s = Store.create () in
  List.iter
    (fun name ->
      match Store.put s name (Store.Certain tree) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "accepted bad name %S" name)
    [ ""; "a/b"; "a b"; "../evil"; "a\n" ]

(* Regression: put used to append with [t.order @ [name]], making N puts
   O(N^2). The rewrite must stay O(1) per put and keep insertion-order
   semantics across removes and re-puts. *)
let test_insertion_order_at_scale () =
  let s = Store.create () in
  let names = List.init 5000 (Printf.sprintf "doc-%04d") in
  List.iter (fun n -> Store.put s n (Store.Certain tree)) names;
  check Alcotest.int "all inserted" 5000 (Store.size s);
  check Alcotest.(list string) "insertion order kept" names (Store.names s);
  (* replacing does not move a document *)
  Store.put s "doc-0000" (Store.Certain (Tree.element "r" []));
  check Alcotest.string "replace keeps position" "doc-0000" (List.hd (Store.names s));
  (* remove + re-put moves it to the end *)
  Store.remove s "doc-2500";
  Store.put s "doc-2500" (Store.Certain tree);
  check Alcotest.string "re-put goes last" "doc-2500"
    (List.nth (Store.names s) (Store.size s - 1))

let test_save_load_roundtrip () =
  let s = Store.create () in
  Store.put s "catalog" (Store.Certain tree);
  Store.put s "john" (Store.Probabilistic pdoc);
  let dir = fresh_dir () in
  save_exn s dir;
  check Alcotest.bool "manifest written" true
    (Sys.file_exists (Filename.concat dir "MANIFEST"));
  let s', report = load_exn dir in
  check Alcotest.bool "clean recovery" true (Store.recovered_all report);
  check Alcotest.bool "manifest verified" true (report.Store.manifest = `Ok);
  check Alcotest.int "both docs back" 2 (Store.size s');
  (match Store.get_certain s' "catalog" with
  | Some t -> check Alcotest.bool "certain round-trips" true (Tree.deep_equal tree t)
  | None -> Alcotest.fail "catalog missing or mistyped");
  match Store.get_probabilistic s' "john" with
  | Some d -> check Alcotest.bool "probabilistic round-trips" true (Pxml.equal pdoc d)
  | None -> Alcotest.fail "john missing or mistyped"

(* Regression: save never deleted files of removed documents, so
   remove + save + load resurrected them from stale files. *)
let test_removed_documents_stay_removed () =
  let dir = fresh_dir () in
  let s = Store.create () in
  Store.put s "keep" (Store.Certain tree);
  Store.put s "gone" (Store.Certain tree);
  save_exn s dir;
  Store.remove s "gone";
  save_exn s dir;
  check Alcotest.bool "stale file deleted" false
    (dir_has dir (fun f -> Astring_contains.contains f "gone"));
  let s', report = load_exn dir in
  check Alcotest.bool "clean recovery" true (Store.recovered_all report);
  check Alcotest.bool "survivor present" true (Store.mem s' "keep");
  check Alcotest.bool "removed document stays removed" false (Store.mem s' "gone")

(* Regression: an .xml file whose basename fails valid_name used to make
   put raise Invalid_argument inside load, escaping the result contract. *)
let test_invalid_name_file_handled_gracefully () =
  let dir = fresh_dir () in
  write_raw dir "bad name.xml" "<r/>";
  write_raw dir "good.xml" "<r/>";
  (match Store.load ~mode:Store.Strict dir with
  | Error msg ->
      check Alcotest.bool "error names the file" true
        (Astring_contains.contains msg "bad name")
  | Ok _ -> Alcotest.fail "strict load accepted an invalid document name");
  let s, report = load_exn ~quarantine:true dir in
  check Alcotest.bool "good document recovered" true (Store.mem s "good");
  check Alcotest.int "only the good document" 1 (Store.size s);
  (match List.assoc_opt "bad name" report.Store.docs with
  | Some (Store.Quarantined _) -> ()
  | _ -> Alcotest.fail "invalid-name file not quarantined");
  check Alcotest.bool "bytes kept under .corrupt" true
    (Sys.file_exists (Filename.concat dir "bad name.xml.corrupt"))

(* World probabilities of a probabilistic document must survive persistence
   bit for bit (the codec prints them with %.17g), unicode and XML special
   characters included. *)
let test_probabilistic_bit_for_bit_roundtrip () =
  let doc =
    Pxml.certain
      [
        Pxml.Elem
          ( "catalog",
            [ ("label", {|"π & <spice>" — Zoë's|}) ],
            [
              Pxml.dist
                [
                  Pxml.choice ~prob:(1. /. 3.) [ Pxml.Text "कथा & <Context>" ];
                  Pxml.choice ~prob:(2. /. 3.)
                    [ Pxml.Elem ("entry", [], [ Pxml.certain [ Pxml.Text "Bjørn Ångström" ] ]) ];
                ];
              Pxml.dist
                [
                  Pxml.choice ~prob:0.1 [ Pxml.Text "a]]>b" ];
                  Pxml.choice ~prob:0.9 [ Pxml.Text "newline\nand\ttab" ];
                ];
            ] );
      ]
  in
  let dir = fresh_dir () in
  let s = Store.create () in
  Store.put s "messy" (Store.Probabilistic doc);
  save_exn s dir;
  let s', report = load_exn dir in
  check Alcotest.bool "clean recovery" true (Store.recovered_all report);
  match Store.get_probabilistic s' "messy" with
  | None -> Alcotest.fail "document lost or mistyped"
  | Some doc' ->
      check Alcotest.bool "structurally equal" true (Pxml.equal doc doc');
      let ws = Worlds.merged doc and ws' = Worlds.merged doc' in
      check Alcotest.int "same number of worlds" (List.length ws) (List.length ws');
      List.iter2
        (fun (p, forest) (p', forest') ->
          check Alcotest.bool "world probability bit-for-bit" true (p = p');
          check Alcotest.bool "world content intact" true
            (List.for_all2 Tree.deep_equal forest forest'))
        ws ws'

let test_load_ignores_non_xml () =
  let dir = fresh_dir () in
  write_raw dir "notes.txt" "not xml at all <<<";
  write_raw dir "data.xml" "<catalog><item>x</item></catalog>";
  let s, report = load_exn dir in
  check Alcotest.int "only the xml file" 1 (Store.size s);
  check Alcotest.bool "named after the file" true (Store.mem s "data");
  check Alcotest.bool "legacy directory flagged" true (report.Store.manifest = `Absent)

let test_load_missing_dir () =
  match Store.load "/nonexistent/imprecise" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* A corrupted document is quarantined with a reason in salvage mode and
   aborts a strict load; the manifest pins down exactly what was lost. *)
let test_corrupted_file_quarantined () =
  let dir = fresh_dir () in
  let s = Store.create () in
  Store.put s "alpha" (Store.Certain tree);
  Store.put s "beta" (Store.Certain (Tree.element "beta" []));
  save_exn s dir;
  (* flip bytes behind the store's back (the first save writes gen 1) *)
  write_raw dir "alpha.g1.ipx" "<catalog><item>tampered</item></catalog>";
  (match Store.load ~mode:Store.Strict dir with
  | Error msg ->
      check Alcotest.bool "strict reports checksum" true
        (Astring_contains.contains msg "checksum")
  | Ok _ -> Alcotest.fail "strict load accepted tampered bytes");
  let s', report = load_exn dir in
  check Alcotest.bool "intact doc recovered" true (Store.mem s' "beta");
  check Alcotest.bool "tampered doc never returned" false (Store.mem s' "alpha");
  (match List.assoc_opt "alpha" report.Store.docs with
  | Some (Store.Quarantined reason) ->
      check Alcotest.bool "reason mentions checksum" true
        (Astring_contains.contains reason "checksum")
  | _ -> Alcotest.fail "tampered doc not quarantined");
  (* the default load left the damaged bytes where they were *)
  check Alcotest.bool "read-only load moves nothing" true
    (Sys.file_exists (Filename.concat dir "alpha.g1.ipx"));
  let _ = load_exn ~quarantine:true dir in
  check Alcotest.bool "bytes preserved under .corrupt" true
    (Sys.file_exists (Filename.concat dir "alpha.g1.ipx.corrupt"));
  check Alcotest.bool "damaged file moved aside" false
    (Sys.file_exists (Filename.concat dir "alpha.g1.ipx"))

(* A manifest that fails its own checksum is quarantined and the directory
   degrades to face-value loading rather than refusing wholesale. *)
let test_corrupt_manifest_salvaged () =
  let dir = fresh_dir () in
  let s = Store.create () in
  Store.put s "alpha" (Store.Certain tree);
  save_exn s dir;
  write_raw dir "MANIFEST" "imprecise-manifest 1\ngarbage\n";
  (match Store.load ~mode:Store.Strict dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict load accepted a corrupt manifest");
  let s', report = load_exn ~quarantine:true dir in
  (match report.Store.manifest with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt manifest not reported");
  check Alcotest.bool "document still salvaged" true (Store.mem s' "alpha");
  check Alcotest.bool "manifest quarantined" true
    (Sys.file_exists (Filename.concat dir "MANIFEST.corrupt"))

(* Regression: save's post-commit cleanup used to delete every .xml file it
   did not recognise, silently destroying foreign user files. Cleanup may
   only touch store-owned names (previous manifest files, generation files,
   staging leftovers); loads report foreign files but never move them. *)
let test_foreign_files_never_deleted () =
  let dir = fresh_dir () in
  let s = Store.create () in
  Store.put s "alpha" (Store.Certain tree);
  save_exn s dir;
  write_raw dir "notes.xml" "<notes>user data, not ours</notes>";
  write_raw dir "todo.txt" "plain text";
  Store.put s "beta" (Store.Certain (Tree.element "beta" []));
  save_exn s dir;
  check Alcotest.bool "foreign xml survives save" true
    (Sys.file_exists (Filename.concat dir "notes.xml"));
  check Alcotest.bool "foreign txt survives save" true
    (Sys.file_exists (Filename.concat dir "todo.txt"));
  let s', report = load_exn dir in
  check Alcotest.bool "foreign xml never loaded" false (Store.mem s' "notes");
  (match List.assoc_opt "notes.xml" report.Store.docs with
  | Some (Store.Quarantined _) -> ()
  | _ -> Alcotest.fail "foreign xml not reported");
  check Alcotest.bool "read-only load leaves it in place" true
    (Sys.file_exists (Filename.concat dir "notes.xml"))

(* The default load has no write side effects: damage is reported but every
   byte stays exactly where it was until someone opts into quarantining. *)
let test_default_load_is_read_only () =
  let dir = fresh_dir () in
  let s = Store.create () in
  Store.put s "alpha" (Store.Certain tree);
  save_exn s dir;
  write_raw dir "alpha.g1.ipx" "torn garbage <<<";
  write_raw dir "beta.g7.ipx.tmp" "interrupted staging";
  let before = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  let s', report = load_exn dir in
  check Alcotest.bool "damaged doc not returned" false (Store.mem s' "alpha");
  check Alcotest.bool "damage reported" true
    (List.exists (fun (_, o) -> o <> Store.Recovered) report.Store.docs);
  let after = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  check Alcotest.(list string) "directory untouched" before after

(* A directory an earlier version wrote — XML documents under a version-2
   manifest — loads as it is; the next save rewrites its documents as .ipx
   under a version-3 manifest and deletes the superseded .xml generation,
   but never a foreign .xml file. *)
let test_legacy_xml_store_migrates () =
  let dir = fresh_dir () in
  let data = "<catalog><item>x</item></catalog>\n" in
  write_raw dir "alpha.g1.xml" data;
  let crc = Imprecise.Bincodec.crc32 in
  let block =
    Printf.sprintf "alpha certain %d %08lx alpha.g1.xml\n" (String.length data) (crc data)
  in
  write_raw dir "MANIFEST"
    (Printf.sprintf "imprecise-manifest 2\n%send 1 %08lx\n" block (crc block));
  write_raw dir "notes.xml" "<notes>user data, not ours</notes>";
  let s, report = load_exn dir in
  check Alcotest.bool "legacy manifest verified" true (report.Store.manifest = `Ok);
  check Alcotest.bool "legacy document loaded" true
    (match Store.get_certain s "alpha" with Some t -> Tree.deep_equal t tree | None -> false);
  save_exn s dir;
  let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  check Alcotest.(list string) "only .ipx, the manifest and the foreign file"
    [ "MANIFEST"; "alpha.g2.ipx"; "notes.xml" ] files;
  check Alcotest.(option string) "version-3 manifest" (Some "imprecise-manifest 3")
    (In_channel.with_open_bin (Filename.concat dir "MANIFEST") In_channel.input_line);
  let s', report = load_exn dir in
  check Alcotest.bool "migrated document loaded" true
    (match Store.get_certain s' "alpha" with Some t -> Tree.deep_equal t tree | None -> false);
  check Alcotest.bool "only the foreign file is reported" true
    (List.for_all
       (fun (name, o) -> (o = Store.Recovered) = (name <> "notes.xml"))
       report.Store.docs)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "store",
      [
        t "put/get/remove/list" test_crud;
        t "name validation" test_name_validation;
        t "insertion order at scale (put is O(1))" test_insertion_order_at_scale;
        t "save/load roundtrip" test_save_load_roundtrip;
        t "removed documents stay removed" test_removed_documents_stay_removed;
        t "invalid-name files handled gracefully" test_invalid_name_file_handled_gracefully;
        t "probabilistic round-trip is bit-for-bit" test_probabilistic_bit_for_bit_roundtrip;
        t "loading a missing directory fails" test_load_missing_dir;
        t "load ignores non-XML files" test_load_ignores_non_xml;
        t "corrupted file quarantined, not returned" test_corrupted_file_quarantined;
        t "corrupt manifest salvaged" test_corrupt_manifest_salvaged;
        t "foreign files are never deleted" test_foreign_files_never_deleted;
        t "default load is read-only" test_default_load_is_read_only;
        t "legacy XML store loads and migrates" test_legacy_xml_store_migrates;
      ] );
  ]
