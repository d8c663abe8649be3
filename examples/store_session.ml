(* Using the document store as a tiny probabilistic XML DBMS session: load
   sources, integrate, persist, reopen, query — the workflow the paper's
   demo runs on top of MonetDB/XQuery.

     dune exec examples/store_session.exe *)

open Imprecise

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "imprecise-session" in
  let store = Store.create () in

  (* Ingest the two sources. *)
  let wl = Data.Workloads.confusing () in
  Store.put store "mpeg7" (Store.Certain (Data.Workloads.mpeg7_doc wl));
  Store.put store "imdb" (Store.Certain (Data.Workloads.imdb_doc wl));

  (* Integrate inside the store. *)
  let a = Option.get (Store.get_certain store "mpeg7") in
  let b = Option.get (Store.get_certain store "imdb") in
  let rules = Rulesets.movie ~genre:true ~title:true ~year:true ~director:true () in
  let doc =
    match integrate ~rules ~dtd:wl.dtd a b with
    | Ok doc -> doc
    | Error e -> Fmt.failwith "integration failed: %a" Integrate.pp_error e
  in
  Store.put store "movies-integrated" (Store.Probabilistic doc);
  Fmt.pr "store now holds: %s@." (String.concat ", " (Store.names store));

  (* Persist and reopen — every document round-trips through a compact
     binary frame, probabilities bit for bit. The save is atomic (tmp + fsync + rename, committed by a
     checksummed MANIFEST) and the load verifies every file against the
     manifest, salvaging what it can and reporting the rest. *)
  (match Store.save store ~dir with
  | Ok () -> Fmt.pr "saved to %s@." dir
  | Error msg -> Fmt.failwith "save failed: %s" msg);
  let reopened =
    match Store.load dir with
    | Ok (s, report) ->
        assert (Store.recovered_all report);
        s
    | Error msg -> Fmt.failwith "load failed: %s" msg
  in
  let doc' = Option.get (Store.get_probabilistic reopened "movies-integrated") in
  assert (Pxml.equal doc doc');
  Fmt.pr "reopened %d documents; integration intact (%d nodes)@.@."
    (Store.size reopened) (node_count doc');

  (* Query the stored probabilistic document. *)
  let q = "//movie[year=1995]/title" in
  Fmt.pr "%s:@.%a" q Answer.pp (rank doc' q)
