(* Fault-injection matrix for the store's crash-safe persistence.

   For every mutating IO operation a save performs (write, fsync, rename,
   delete, manifest write) and for every failure flavour (clean crash, torn
   write, ENOSPC), inject the fault, let the save die, and assert that a
   subsequent salvaging load recovers exactly the documents whose rename
   completed, quarantines the rest with a reason, and never returns a
   document whose bytes differ from what the store wrote.

     dune build @crash       runs only this matrix
     dune runtest            includes it *)

module Store = Imprecise.Store
module Io = Imprecise.Store.Io
module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml

let check = Alcotest.check

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
      (Printf.sprintf "imprecise-crash-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  dir

let mode_name = function
  | Io.Crash -> "crash"
  | Io.Torn -> "torn-write"
  | Io.Enospc -> "enospc"

let modes = [ Io.Crash; Io.Torn; Io.Enospc ]

let doc_equal a b =
  match (a, b) with
  | Store.Certain x, Store.Certain y -> Tree.deep_equal x y
  | Store.Probabilistic x, Store.Probabilistic y -> Pxml.equal x y
  | _ -> false

(* three documents, one probabilistic with messy content *)
let alpha_v1 = Store.Certain (Imprecise.parse_xml_exn "<alpha><item>one</item></alpha>")

let alpha_v2 = Store.Certain (Imprecise.parse_xml_exn "<alpha><item>two</item><item>2</item></alpha>")

let beta =
  Store.Probabilistic
    (Pxml.certain
       [
         Pxml.Elem
           ( "beta",
             [ ("note", {|"<&>" — ångström|}) ],
             [
               Pxml.dist
                 [
                   Pxml.choice ~prob:0.1 [ Pxml.Text "π ≈ 3" ];
                   Pxml.choice ~prob:0.9 [ Pxml.Text "<tag> & entity" ];
                 ];
             ] );
       ])

let gamma = Store.Certain (Imprecise.parse_xml_exn "<gamma/>")

let delta = Store.Certain (Imprecise.parse_xml_exn "<delta>new in v2</delta>")

let v1_docs = [ ("alpha", alpha_v1); ("beta", beta); ("gamma", gamma) ]

let make_v1 () =
  let s = Store.create () in
  List.iter (fun (n, d) -> Store.put s n d) v1_docs;
  s

(* Committed files are generation-stamped: alpha.g3.ipx holds document
   "alpha". *)
let doc_of_path path =
  let base = Filename.chop_suffix (Filename.basename path) ".ipx" in
  match String.rindex_opt base '.' with
  | Some i when i + 1 < String.length base && base.[i + 1] = 'g' -> String.sub base 0 i
  | _ -> base

(* Count the mutating operations of [save] so the matrix covers them all. *)
let count_ops save =
  let n = ref 0 in
  let io = Io.observe (fun op _ -> if Io.is_mutating op then incr n) Io.real in
  (match save io with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "sizing save failed: %s" msg);
  !n

let assert_reasons report =
  List.iter
    (fun (name, o) ->
      match o with
      | Store.Quarantined "" -> Alcotest.failf "%s quarantined without a reason" name
      | _ -> ())
    report.Store.docs

(* --- first save into an empty directory -------------------------------- *)

let test_fresh_save_matrix () =
  let total = count_ops (fun io -> Store.save ~io (make_v1 ()) ~dir:(fresh_dir ())) in
  (* mkdir + 3 ops per document + 3 for the manifest + 2 directory syncs *)
  check Alcotest.int "matrix size" (1 + (3 * List.length v1_docs) + 3 + 2) total;
  (* the most document renames any fault point let through: the observer
     must see every document's rename, or "recovered = renamed" proves
     nothing *)
  let most_renamed = ref 0 in
  List.iter
    (fun mode ->
      for fail_at = 1 to total do
        let label what = Printf.sprintf "%s (mode %s, fault %d)" what (mode_name mode) fail_at in
        let dir = fresh_dir () in
        (* record which documents made it through their rename *)
        let renamed = ref [] in
        let io =
          Io.observe
            (fun op path ->
              if op = Io.Rename && Filename.check_suffix path ".ipx" then
                renamed := doc_of_path path :: !renamed)
            (Io.faulty ~mode ~fail_at Io.real)
        in
        (match Store.save ~io (make_v1 ()) ~dir with
        | Error _ -> ()
        | Ok () -> Alcotest.fail (label "save survived its injected fault"));
        most_renamed := max !most_renamed (List.length !renamed);
        if not (Sys.file_exists dir) then
          (* the fault hit mkdir: nothing was ever written *)
          check Alcotest.(list string) (label "nothing written") [] !renamed
        else
        match Store.load dir with
        | Error msg -> Alcotest.failf "%s: %s" (label "salvaging load refused") msg
        | Ok (s, report) ->
            (* exactly the renamed documents are recovered *)
            check
              Alcotest.(list string)
              (label "recovered = renamed")
              (List.sort String.compare !renamed)
              (List.sort String.compare (Store.names s));
            (* and each one is intact, bit for bit *)
            List.iter
              (fun (name, doc) ->
                match Store.get s name with
                | Some d -> check Alcotest.bool (label (name ^ " intact")) true (doc_equal doc d)
                | None -> ())
              v1_docs;
            assert_reasons report;
            (* the default load only reads: nothing was renamed aside *)
            check Alcotest.bool (label "default load is read-only") false
              (Array.exists
                 (fun f -> Filename.check_suffix f ".corrupt")
                 (Sys.readdir dir));
            (* recovery converges: quarantining the damage yields a clean
               directory for every later load *)
            (match Store.load ~quarantine:true dir with
            | Error msg -> Alcotest.failf "%s: %s" (label "quarantining load refused") msg
            | Ok (sq, _) ->
                check Alcotest.int (label "quarantine recovers the same") (Store.size s)
                  (Store.size sq));
            (match Store.load dir with
            | Error msg -> Alcotest.failf "%s: %s" (label "second load refused") msg
            | Ok (s2, r2) ->
                check Alcotest.int (label "second load stable") (Store.size s) (Store.size s2);
                check Alcotest.bool (label "second load clean") true (Store.recovered_all r2))
      done)
    modes;
  check Alcotest.int "every document rename observed" (List.length v1_docs) !most_renamed

(* --- overwriting save on a committed directory -------------------------- *)

(* v2 changes alpha, keeps beta, removes gamma, adds delta. The manifest
   rename is the commit point: before it the store must read as v1 (gamma
   and all), after it as exactly v2 (gamma gone for good). *)
let test_overwrite_save_matrix () =
  let apply_v2 s =
    Store.put s "alpha" alpha_v2;
    Store.remove s "gamma";
    Store.put s "delta" delta
  in
  let total =
    count_ops (fun io ->
        let dir = fresh_dir () in
        match Store.save (make_v1 ()) ~dir with
        | Error msg -> Alcotest.failf "v1 save failed: %s" msg
        | Ok () ->
            let s = make_v1 () in
            apply_v2 s;
            Store.save ~io s ~dir)
  in
  (* 3 ops per live document + 3 for the manifest + 2 directory syncs
     + 3 deletes of the superseded generation-1 files *)
  check Alcotest.int "matrix size" ((3 * 3) + 3 + 2 + 3) total;
  List.iter
    (fun mode ->
      for fail_at = 1 to total do
        let label what = Printf.sprintf "%s (mode %s, fault %d)" what (mode_name mode) fail_at in
        let dir = fresh_dir () in
        (match Store.save (make_v1 ()) ~dir with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "v1 save failed: %s" msg);
        let committed = ref false in
        let io =
          Io.observe
            (fun op path ->
              if op = Io.Rename && Filename.basename path = "MANIFEST" then committed := true)
            (Io.faulty ~mode ~fail_at Io.real)
        in
        let s = make_v1 () in
        apply_v2 s;
        (match Store.save ~io s ~dir with
        | Error _ -> ()
        | Ok () -> Alcotest.fail (label "save survived its injected fault"));
        match Store.load dir with
        | Error msg -> Alcotest.failf "%s: %s" (label "salvaging load refused") msg
        | Ok (s', report) ->
            assert_reasons report;
            (* safety: anything returned is a version the store once wrote *)
            let acceptable = function
              | "alpha" -> [ alpha_v1; alpha_v2 ]
              | "beta" -> [ beta ]
              | "gamma" -> [ gamma ]
              | "delta" -> [ delta ]
              | name -> Alcotest.failf "%s" (label ("unexpected document " ^ name))
            in
            List.iter
              (fun name ->
                let d = Option.get (Store.get s' name) in
                check Alcotest.bool
                  (label (name ^ " is a version the store wrote"))
                  true
                  (List.exists (doc_equal d) (acceptable name)))
              (Store.names s');
            if !committed then begin
              (* after the commit point: exactly v2 *)
              check Alcotest.bool (label "alpha is v2") true
                (match Store.get s' "alpha" with
                | Some d -> doc_equal d alpha_v2
                | None -> false);
              check Alcotest.bool (label "beta survives") true (Store.mem s' "beta");
              check Alcotest.bool (label "delta present") true (Store.mem s' "delta");
              check Alcotest.bool (label "gamma never resurrects") false (Store.mem s' "gamma")
            end
            else begin
              (* before the commit point: v1 is still in force, in full —
                 the interrupted save must not have damaged any committed
                 document (staging never touches committed files) *)
              check Alcotest.bool (label "gamma still v1") true
                (match Store.get s' "gamma" with
                | Some d -> doc_equal d gamma
                | None -> false);
              check Alcotest.bool (label "beta still readable") true (Store.mem s' "beta");
              check Alcotest.bool (label "alpha still v1") true
                (match Store.get s' "alpha" with
                | Some d -> doc_equal d alpha_v1
                | None -> false);
              check Alcotest.bool (label "delta not visible before commit") false
                (Store.mem s' "delta")
            end
      done)
    modes

(* --- the checksum gate -------------------------------------------------- *)

(* A torn write that the filesystem "completes" (prefix of the bytes, file
   renamed by a later interleaving) must be caught by the manifest CRC, not
   returned as a silently truncated document. *)
let test_truncated_committed_file_is_caught () =
  let dir = fresh_dir () in
  (match Store.save (make_v1 ()) ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  let path = Filename.concat dir "alpha.g1.ipx" in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full / 2)));
  match Store.load dir with
  | Error msg -> Alcotest.failf "salvaging load refused: %s" msg
  | Ok (s, report) ->
      check Alcotest.bool "truncated doc never returned" false (Store.mem s "alpha");
      (match List.assoc_opt "alpha" report.Store.docs with
      | Some (Store.Quarantined _) -> ()
      | _ -> Alcotest.fail "truncated doc not quarantined");
      check Alcotest.bool "other docs unaffected" true
        (Store.mem s "beta" && Store.mem s "gamma")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "store.crash-matrix",
      [
        t "fresh save: every fault point, every mode" test_fresh_save_matrix;
        t "overwriting save: commit-point semantics" test_overwrite_save_matrix;
        t "checksum catches a truncated committed file" test_truncated_committed_file_is_caught;
      ] );
  ]

let () = Alcotest.run "imprecise-crash" suite
