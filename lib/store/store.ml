module Xml = Imprecise_xml
module Tree = Xml.Tree
module Pxml = Imprecise_pxml.Pxml
module Codec = Imprecise_pxml.Codec
module Bincodec = Imprecise_pxml.Bincodec
module Io = Io
module Manifest = Manifest
module Obs = Imprecise_obs.Obs

let c_saves = Obs.Metrics.counter "store.saves"

let c_loads = Obs.Metrics.counter "store.loads"

let c_salvage = Obs.Metrics.counter "store.salvage_events"

let c_binary_bytes = Obs.Metrics.counter "store.binary_bytes"

type doc = Certain of Tree.t | Probabilistic of Pxml.doc

type t = {
  tbl : (string, doc) Hashtbl.t;
  (* newest first, so put is O(1); [names] reverses once and caches *)
  mutable rev_order : string list;
  mutable order_cache : string list option;
  gens : (string, int) Hashtbl.t;
}

(* Document generations come from one process-global counter, so a
   (name, generation) pair is never reused — not within a store, and not
   across two stores that happen to share a name. Query caches keyed by
   generation therefore never serve a stale answer. Atomic, because
   parallel query evaluation may share the process with a writer. *)
let gen_counter = Atomic.make 0

let create () =
  {
    tbl = Hashtbl.create 16;
    rev_order = [];
    order_cache = None;
    gens = Hashtbl.create 16;
  }

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-')
       name

let put t name doc =
  if not (valid_name name) then
    invalid_arg (Fmt.str "Store.put: invalid document name %S" name);
  if not (Hashtbl.mem t.tbl name) then begin
    t.rev_order <- name :: t.rev_order;
    t.order_cache <- None
  end;
  Hashtbl.replace t.tbl name doc;
  Hashtbl.replace t.gens name (Atomic.fetch_and_add gen_counter 1)

let get t name = Hashtbl.find_opt t.tbl name

let get_certain t name =
  match get t name with Some (Certain tree) -> Some tree | _ -> None

let get_probabilistic t name =
  match get t name with Some (Probabilistic doc) -> Some doc | _ -> None

let remove t name =
  if Hashtbl.mem t.tbl name then begin
    Hashtbl.remove t.tbl name;
    Hashtbl.remove t.gens name;
    t.rev_order <- List.filter (fun n -> n <> name) t.rev_order;
    t.order_cache <- None
  end

let generation t name = Hashtbl.find_opt t.gens name

let mem t name = Hashtbl.mem t.tbl name

let names t =
  match t.order_cache with
  | Some order -> order
  | None ->
      let order = List.rev t.rev_order in
      t.order_cache <- Some order;
      order

let size t = Hashtbl.length t.tbl

let doc_to_tree = function
  | Certain tree -> tree
  | Probabilistic doc -> Codec.encode doc

let kind_of_doc = function
  | Certain _ -> Manifest.Certain
  | Probabilistic _ -> Manifest.Probabilistic

(* ---- on-disk naming --------------------------------------------------- *)

type format = Xml | Binary

let xml_suffix = ".xml"

(* compact binary documents (store format v3, Bincodec frames) *)
let ipx_suffix = ".ipx"

let doc_suffixes = [ xml_suffix; ipx_suffix ]

let doc_suffix_of file = List.find_opt (Filename.check_suffix file) doc_suffixes

let tmp_suffix = ".tmp"

let corrupt_suffix = ".corrupt"

(* Committed document files carry the generation of the save that wrote
   them: [<name>.g<N>.xml] (or [.ipx] for binary). A save stages under
   filenames no previous commit references, so committed files are never
   renamed or overwritten; the manifest rename flips the store from one
   generation's files to the next, and only then are superseded files
   deleted. *)
let gen_filename name ~gen ~format =
  let suffix = match format with Xml -> xml_suffix | Binary -> ipx_suffix in
  Fmt.str "%s.g%d%s" name gen suffix

(* [split_gen "alpha.g12.xml"] is [Some ("alpha", 12)]; same for [.ipx]. *)
let split_gen file =
  match doc_suffix_of file with
  | None -> None
  | Some suffix -> (
      let base = Filename.chop_suffix file suffix in
      match String.rindex_opt base '.' with
      | None | Some 0 -> None
      | Some i ->
          let tag = String.sub base (i + 1) (String.length base - i - 1) in
          if
            String.length tag >= 2
            && tag.[0] = 'g'
            && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub tag 1 (String.length tag - 1))
          then
            match int_of_string_opt (String.sub tag 1 (String.length tag - 1)) with
            | Some gen -> Some (String.sub base 0 i, gen)
            | None -> None
          else None)

(* The document a file was meant to hold — for reports, and for loading
   directories whose manifest is absent or damaged. *)
let doc_name_of_file file =
  match split_gen file with
  | Some (name, _) -> name
  | None -> (
      match doc_suffix_of file with
      | Some suffix -> Filename.chop_suffix file suffix
      | None -> file)

let serialize ~format doc =
  match format with
  | Xml -> Xml.Printer.to_string ~decl:true ~indent:2 (doc_to_tree doc) ^ "\n"
  | Binary ->
      let data =
        match doc with
        | Certain tree -> Bincodec.tree_to_string tree
        | Probabilistic d -> Bincodec.doc_to_string d
      in
      Obs.Metrics.incr ~by:(String.length data) c_binary_bytes;
      data

(* ---- retry ------------------------------------------------------------- *)

module Retry = Imprecise_resilience.Retry

(* Attempts are idempotent by construction, so retrying is safe: a save
   stages each try under a fresh generation (leftover .tmp files and
   half-committed generations from a failed attempt are invisible to the
   next, and swept by its cleanup phase), and a load builds a fresh
   in-memory store per attempt. [Io.classify_error] keeps permanent
   failures (bad directory, strict-mode corruption) from burning
   attempts. *)
let with_retry ?retry ?sleep f =
  match retry with
  | None -> f ()
  | Some policy -> Retry.run ?sleep ~classify:Io.classify_error policy f

(* ---- save ------------------------------------------------------------- *)

let save_attempt io t ~dir ~format =
    if not (Io.exists io dir) then Io.mkdir io dir;
    let mpath = Filename.concat dir Manifest.filename in
    (* the previous commit, when readable: exactly the document files this
       save supersedes and may delete once it has committed *)
    let prev =
      if not (Io.exists io mpath) then []
      else
        match Manifest.of_string (Io.read_file io mpath) with
        | Ok entries -> entries
        | Error _ -> []
    in
    let gen =
      let max_gen acc file =
        match split_gen file with Some (_, g) -> max acc g | None -> acc
      in
      1
      + List.fold_left max_gen
          (List.fold_left (fun acc (e : Manifest.entry) -> max_gen acc e.file) 0 prev)
          (Io.list_dir io dir)
    in
    (* stage this generation: tmp, fsync, rename — onto fresh filenames, so
       the previous commit's files stay intact until after the commit *)
    let entries =
      Io.with_tag "doc" @@ fun () ->
      List.map
        (fun name ->
          let doc = Hashtbl.find t.tbl name in
          let data = serialize ~format doc in
          let file = gen_filename name ~gen ~format in
          let final = Filename.concat dir file in
          let tmp = final ^ tmp_suffix in
          Io.write_file io tmp data;
          Io.fsync io tmp;
          Io.rename io ~src:tmp ~dst:final;
          {
            Manifest.name;
            kind = kind_of_doc doc;
            length = String.length data;
            crc = Manifest.crc32 data;
            file;
          })
        (names t)
    in
    Io.with_tag "manifest" (fun () ->
        (* the renames must be durable before a manifest may name them *)
        Io.fsync_dir io dir;
        (* commit: the manifest names exactly the live documents *)
        let mtmp = mpath ^ tmp_suffix in
        Io.write_file io mtmp (Manifest.to_string entries);
        Io.fsync io mtmp;
        Io.rename io ~src:mtmp ~dst:mpath;
        (* ... and the commit must be durable before save reports success *)
        Io.fsync_dir io dir);
    (* after the commit, delete superseded store-owned files: the previous
       manifest's files, older-generation documents, and leftover staging
       files. Foreign files — anything the store did not write — are never
       touched. *)
    let committed file = List.exists (fun (e : Manifest.entry) -> e.file = file) entries in
    Io.with_tag "cleanup" (fun () ->
        List.iter
          (fun file ->
            let store_owned =
              List.exists (fun (e : Manifest.entry) -> e.file = file) prev
              || split_gen file <> None
              || List.exists
                   (fun s -> Filename.check_suffix file (s ^ tmp_suffix))
                   doc_suffixes
              || file = Manifest.filename ^ tmp_suffix
            in
            if store_owned && not (committed file) then
              Io.delete io (Filename.concat dir file))
          (Io.list_dir io dir))

let save ?(io = Io.real) ?retry ?sleep ?(format = Xml) t ~dir =
  let io = Io.metered io in
  Obs.Metrics.incr c_saves;
  Obs.Trace.op "store.save" ~detail:dir @@ fun () ->
  match with_retry ?retry ?sleep (fun () -> save_attempt io t ~dir ~format) with
  | () -> Ok ()
  | exception Sys_error msg ->
      Obs.Trace.outcome ("error:" ^ msg);
      Error msg
  | exception Io.Fault msg ->
      Obs.Trace.outcome ("error:" ^ msg);
      Error msg

(* ---- load ------------------------------------------------------------- *)

type load_mode = Strict | Salvage

type outcome = Recovered | Quarantined of string | Missing

type manifest_status = [ `Ok | `Absent | `Corrupt of string ]

type report = { manifest : manifest_status; docs : (string * outcome) list }

let recovered_all r = List.for_all (fun (_, o) -> o = Recovered) r.docs

let pp_outcome ppf = function
  | Recovered -> Fmt.string ppf "recovered"
  | Quarantined reason -> Fmt.pf ppf "quarantined: %s" reason
  | Missing -> Fmt.string ppf "missing (listed in manifest, no file)"

let pp_report ppf r =
  (match r.manifest with
  | `Ok -> Fmt.pf ppf "manifest: ok@."
  | `Absent -> Fmt.pf ppf "manifest: absent (legacy directory, files taken at face value)@."
  | `Corrupt reason -> Fmt.pf ppf "manifest: corrupt (%s); files taken at face value@." reason);
  List.iter (fun (name, o) -> Fmt.pf ppf "  %-24s %a@." name pp_outcome o) r.docs

(* Strict mode turns the first problem into an [Error]. *)
exception Abort of string

let parse_doc data =
  if Bincodec.is_binary data then
    match Bincodec.of_string data with
    | Ok (Bincodec.Certain tree) -> Ok (Certain tree)
    | Ok (Bincodec.Probabilistic d) -> Ok (Probabilistic d)
    | Error msg -> Error msg
  else
    match Xml.Parser.parse_string data with
    | Error e -> Error (Xml.Parser.error_to_string e)
    | Ok tree ->
        if Tree.name tree = Some Codec.prob_tag then
          match Codec.decode tree with
          | Ok d -> Ok (Probabilistic d)
          | Error msg -> Error msg
        else Ok (Certain tree)

let load_attempt io ~mode ~quarantine dir =
    let files = Io.list_dir io dir |> List.sort String.compare in
    let t = create () in
    let outcomes = ref [] (* newest first *) in
    let note name o =
      if o <> Recovered then begin
        Obs.Metrics.incr c_salvage;
        Obs.Event.emit
          ~fields:
            [
              ("doc", Obs.Json.String name);
              ("outcome", Obs.Json.String (Fmt.str "%a" pp_outcome o));
            ]
          "store.salvage"
      end;
      outcomes := (name, o) :: !outcomes
    in
    let noted name = List.exists (fun (n, _) -> n = name) !outcomes in
    (* renames to *.corrupt only happen when the caller opted in; the
       default load has no write side effects at all *)
    let move_aside path =
      if quarantine then
        Io.with_tag "quarantine" (fun () ->
            Io.rename io ~src:path ~dst:(path ^ corrupt_suffix))
    in
    (* the manifest, if any *)
    let mpath = Filename.concat dir Manifest.filename in
    let manifest_status, manifest =
      if not (List.mem Manifest.filename files) then (`Absent, None)
      else
        match Manifest.of_string (Io.read_file io mpath) with
        | Ok m -> (`Ok, Some m)
        | Error reason -> (
            match mode with
            | Strict -> raise (Abort (Fmt.str "%s: %s" mpath reason))
            | Salvage ->
                move_aside mpath;
                (`Corrupt reason, None))
    in
    (* leftover staging files are interrupted writes; salvage reports them
       (strict ignores them, as the pre-manifest loader did) *)
    let tmp_notes =
      match mode with
      | Strict -> []
      | Salvage ->
          List.filter_map
            (fun file ->
              if not (Filename.check_suffix file tmp_suffix) then None
              else begin
                move_aside (Filename.concat dir file);
                if
                  List.exists
                    (fun s -> Filename.check_suffix file (s ^ tmp_suffix))
                    doc_suffixes
                then Some (doc_name_of_file (Filename.chop_suffix file tmp_suffix))
                else None
              end)
            files
    in
    let doc_files = List.filter (fun f -> doc_suffix_of f <> None) files in
    let fail_or_flag path key reason =
      match mode with
      | Strict -> raise (Abort (Fmt.str "%s: %s" path reason))
      | Salvage ->
          move_aside path;
          note key (Quarantined reason)
    in
    (match manifest with
    | Some entries ->
        (* the manifest is authoritative: verify each listed document *)
        List.iter
          (fun (e : Manifest.entry) ->
            let path = Filename.concat dir e.file in
            if not (valid_name e.name && valid_name e.file) then
              match mode with
              | Strict ->
                  raise (Abort (Fmt.str "%s: invalid manifest entry for %S" mpath e.name))
              | Salvage -> note e.name (Quarantined "invalid name or file in manifest entry")
            else if not (Io.exists io path) then
              match mode with
              | Strict -> raise (Abort (Fmt.str "%s: missing (listed in manifest)" path))
              | Salvage -> note e.name Missing
            else
              let data = Io.read_file io path in
              let verdict =
                if String.length data <> e.length || Manifest.crc32 data <> e.crc then
                  Error
                    "checksum mismatch against manifest (torn write, or data from an \
                     interrupted later save)"
                else
                  match parse_doc data with
                  | Error msg -> Error (Fmt.str "parse error: %s" msg)
                  | Ok doc ->
                      if kind_of_doc doc <> e.kind then
                        Error
                          (Fmt.str "manifest says %a, file decodes as %a" Manifest.pp_kind
                             e.kind Manifest.pp_kind (kind_of_doc doc))
                      else Ok doc
              in
              (match verdict with
              | Ok doc ->
                  put t e.name doc;
                  note e.name Recovered
              | Error reason -> fail_or_flag path e.name reason))
          entries;
        (* files the manifest does not know: leftovers of a removed
           document or of an interrupted save, or foreign files; never
           load them (loading would resurrect deleted data) *)
        List.iter
          (fun file ->
            if not (List.exists (fun (e : Manifest.entry) -> e.file = file) entries) then
              fail_or_flag (Filename.concat dir file) file
                "not listed in manifest (leftover of a removed document or an \
                 interrupted save, or a foreign file)")
          doc_files
    | None ->
        (* no manifest: a legacy or uncommitted directory; take every
           well-formed <valid-name>.xml at face value *)
        List.iter
          (fun file ->
            let path = Filename.concat dir file in
            let name = doc_name_of_file file in
            if not (valid_name name) then
              fail_or_flag path name (Fmt.str "invalid document name %S" name)
            else
              match parse_doc (Io.read_file io path) with
              | Error msg -> fail_or_flag path name msg
              | Ok doc ->
                  put t name doc;
                  if not (noted name) then note name Recovered)
          doc_files);
    (* interrupted writes with no surviving document of the same name *)
    List.iter
      (fun name ->
        if not (noted name) then
          note name (Quarantined "interrupted write (only a .tmp staging file found)"))
      tmp_notes;
    (t, { manifest = manifest_status; docs = List.rev !outcomes })

let load ?(io = Io.real) ?retry ?sleep ?(mode = Salvage) ?(quarantine = false) dir =
  let io = Io.metered io in
  Obs.Metrics.incr c_loads;
  Obs.Trace.op "store.load" ~detail:dir @@ fun () ->
  match with_retry ?retry ?sleep (fun () -> load_attempt io ~mode ~quarantine dir) with
  | result -> Ok result
  | exception Abort msg ->
      Obs.Trace.outcome ("error:" ^ msg);
      Error msg
  | exception Sys_error msg ->
      Obs.Trace.outcome ("error:" ^ msg);
      Error msg
  | exception Io.Fault msg ->
      Obs.Trace.outcome ("error:" ^ msg);
      Error msg
