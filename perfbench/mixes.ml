(* The three session workloads. Each set-up builds its inputs from the
   seed, integrates and saves every document once, pins the paper's answers
   and returns the workload's deck of ops (see [t] below). *)

open Imprecise

let span = Obs.Trace.with_span

(* ---- files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755)

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)

(* ---- draws ------------------------------------------------------------------ *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- documents ---------------------------------------------------------------- *)

(* How one session document is integrated: the XML text of its sources and
   the integration options, as the CLI [integrate] entry takes them. *)
type recipe = {
  texts : string list;
  rules : Rulesets.t;
  dtd : Dtd.t;
  factorize : bool;
  blocker : Blocking.spec;
}

(* A session document lives alone in its own store, saved to its own
   directory, so a save or load costs what that document costs. *)
type item = {
  label : string;
  recipe : recipe;
  store : Store.t;
  dir : string;
  nodes : int;  (** expected node count of the integration *)
  worlds : float;  (** expected world count *)
  mutable saved : Pxml.doc option;  (** the document as of its last save *)
  expected : (string, Answer.t list) Hashtbl.t;
      (** first answer seen per query; later answers must agree *)
}

let recipe ?(factorize = false) ?(blocker = Blocking.All_pairs) ~rules ~dtd sources =
  { texts = List.map (fun t -> Xml.Printer.to_string t) sources; rules; dtd; factorize; blocker }

(* Store names allow [A-Za-z0-9._-] only. *)
let safe_label s =
  String.map
    (function ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '-') as c -> c | _ -> '_')
    s

let parse_sources r =
  span "xml.parse" (fun () ->
      List.map (fun s -> Op.ok Xml.Parser.pp_error (Xml.Parser.parse_string s)) r.texts)

let run_recipe r =
  integrate_many ~rules:r.rules ~dtd:r.dtd ~factorize:r.factorize ~blocker:r.blocker
    ~jobs:1 (parse_sources r)

let doc_of it =
  match Store.get_probabilistic it.store it.label with
  | Some d -> d
  | None -> Op.fail "%s: not in its store" it.label

let source_bytes it = List.fold_left (fun acc t -> acc + String.length t) 0 it.recipe.texts

(* [make_item ~root label recipe] integrates once, checks the result against
   the [Integrate.stats] mirror when there are two sources, and puts and
   saves it. *)
let make_item ~root label recipe =
  let label = safe_label label in
  let doc = Op.ok Integrate.pp_error (run_recipe recipe) in
  (match recipe.texts with
  | [ _; _ ] -> (
      match parse_sources recipe with
      | [ a; b ] ->
          let s =
            Op.ok Integrate.pp_error
              (integration_stats ~rules:recipe.rules ~dtd:recipe.dtd
                 ~factorize:recipe.factorize ~blocker:recipe.blocker a b)
          in
          if s.Integrate.nodes <> float (node_count doc) || s.Integrate.worlds <> world_count doc
          then
            Op.wrong "%s: integration (%d nodes, %g worlds) differs from its stats mirror \
                      (%g, %g)" label (node_count doc) (world_count doc) s.Integrate.nodes
              s.Integrate.worlds
      | _ -> assert false)
  | _ -> ());
  let store = Store.create () in
  Store.put store label (Store.Probabilistic doc);
  let dir = Filename.concat root label in
  mkdir_p dir;
  Op.ok_string (Store.save store ~dir);
  {
    label;
    recipe;
    store;
    dir;
    nodes = node_count doc;
    worlds = world_count doc;
    saved = Some doc;
    expected = Hashtbl.create 16;
  }

(* ---- checks ------------------------------------------------------------------- *)

let by_value l = List.sort (fun (a : Answer.t) b -> compare a.value b.value) l

let same_answers a b =
  let a = by_value a and b = by_value b in
  List.length a = List.length b
  && List.for_all2
       (fun (x : Answer.t) (y : Answer.t) ->
         String.equal x.value y.value && Float.abs (x.prob -. y.prob) <= 1e-9)
       a b

let check_probs what answers =
  List.iter
    (fun (a : Answer.t) ->
      if not (a.prob >= 0. && a.prob <= 1. +. 1e-9) then
        Op.wrong "%s: P(%s) = %g outside [0,1]" what a.value a.prob)
    answers

let check_answers it q answers =
  check_probs (it.label ^ " " ^ q) answers;
  Op.Probe.answers := !Op.Probe.answers + List.length answers;
  Op.Probe.doc_worlds := it.worlds :: !Op.Probe.doc_worlds;
  match Hashtbl.find_opt it.expected q with
  | None -> Hashtbl.add it.expected q answers
  | Some e ->
      if not (same_answers e answers) then
        Op.wrong "%s %s: answers changed between evaluations" it.label q

let check_doc what doc =
  match Pxml.validate doc with Ok () -> () | Error m -> Op.wrong "%s: invalid document: %s" what m

(* Direct and enumeration agree on a small document. *)
let check_direct it q =
  let doc = doc_of it in
  let d = rank ~strategy:Pquery.Direct_only doc q
  and e = rank ~strategy:Pquery.Enumerate_only doc q in
  if not (same_answers d e) then Op.wrong "%s %s: Direct disagrees with enumeration" it.label q

(* ---- ops ----------------------------------------------------------------------- *)

let integrate_op it =
  Op.make Op.Integrate
    (fun () ->
      let r = run_recipe it.recipe in
      (match r with
      | Ok doc ->
          span "store.put" (fun () -> Store.put it.store it.label (Store.Probabilistic doc))
      | Error _ -> ());
      r)
    (fun r ->
      let doc = Op.ok Integrate.pp_error r in
      if node_count doc <> it.nodes || world_count doc <> it.worlds then
        Op.wrong "%s: integrated to %d nodes / %g worlds, expected %d / %g" it.label
          (node_count doc) (world_count doc) it.nodes it.worlds;
      Op.Probe.nodes_out := !Op.Probe.nodes_out + node_count doc)

(* Through the store and the process-wide answer cache. *)
let query_store_op ?(also = ignore) it q =
  Op.make ~query:q Op.Query
    (fun () -> query_store it.store it.label q)
    (fun r ->
      let answers = Op.ok_string r in
      check_answers it q answers;
      also answers)

(* Straight to the evaluator, no cache. *)
let rank_op it q =
  let doc = doc_of it in
  Op.make ~query:q Op.Query (fun () -> rank doc q) (check_answers it q)

type feedback = Prune | Assert | Certainty

(* A feedback target: an uncertain answer of one of the item's queries. *)
type target = { fb_item : item; fb_query : string; fb_value : string }

let feedback_op rng kind t =
  let doc = doc_of t.fb_item and what = t.fb_item.label in
  let correct = Random.State.bool rng in
  let query = t.fb_query and value = t.fb_value in
  Op.Probe.doc_worlds := t.fb_item.worlds :: !Op.Probe.doc_worlds;
  match kind with
  | Prune ->
      Op.make Op.Feedback
        (fun () ->
          span "feedback.prune" (fun () -> Feedback.prune doc ~query ~value ~correct))
        (fun r ->
          let d = Op.ok Feedback.pp_error r in
          check_doc what d;
          if world_count d > world_count doc then Op.wrong "%s: prune added worlds" what)
  | Assert ->
      Op.make Op.Feedback
        (fun () ->
          span "feedback.assert" (fun () ->
              Feedback.assert_answer doc ~query ~value ~correct))
        (fun r ->
          let d = Op.ok Feedback.pp_error r in
          check_doc what d;
          let p =
            List.fold_left
              (fun acc (a : Answer.t) -> if a.value = value then a.prob else acc)
              0. (rank d query)
          in
          let want = if correct then 1. else 0. in
          if Float.abs (p -. want) > 1e-9 then
            Op.wrong "%s: after asserting %s, P(%s) = %g" what
              (if correct then "correct" else "incorrect")
              value p)
  | Certainty ->
      Op.make Op.Feedback
        (fun () -> span "feedback.certainty" (fun () -> Feedback.certainty doc))
        (fun p ->
          if not (p >= (1. /. world_count doc) -. 1e-12 && p <= 1. +. 1e-9) then
            Op.wrong "%s: certainty %g outside [1/worlds, 1]" what p)

let save_op it =
  let doc = doc_of it in
  Op.make Op.Save
    (fun () -> Store.save it.store ~dir:it.dir)
    (fun r ->
      Op.ok_string r;
      it.saved <- Some doc)

let load_op it =
  Op.make Op.Load
    (fun () -> Store.load it.dir)
    (fun r ->
      let st, report = Op.ok_string r in
      if not (Store.recovered_all report) then
        Op.wrong "%s: load did not recover every document" it.label;
      if Store.names st <> [ it.label ] then
        Op.wrong "%s: load returned other documents" it.label;
      match (it.saved, Store.get_probabilistic st it.label) with
      | Some saved, Some loaded ->
          if not (Pxml.equal saved loaded) then
            Op.wrong "%s: loaded document differs from the saved one" it.label
      | _ -> Op.wrong "%s: loaded document missing" it.label)

(* ---- shared set-up -------------------------------------------------------------- *)

let q1 = {|//movie[.//genre="Horror"]/title|}

let q2 = {|//movie[some $d in .//director satisfies contains($d,"John")]/title|}

let section6_rules = Rulesets.movie ~genre:true ~title:true ~director:true ()

let pinned doc q expected =
  let got = rank doc q in
  let want = List.map (fun (value, prob) -> { Answer.value; prob }) expected in
  if not (Answer.equal ~tolerance:1e-6 want got) then
    Op.wrong "pinned ranking of %s changed: %a" q Answer.pp got

(* The paper's §VI rankings and Fig. 2's three worlds. *)
let pin_paper () =
  let wl = Data.Workloads.confusing () in
  let doc =
    Op.ok Integrate.pp_error
      (integrate ~rules:section6_rules ~dtd:wl.dtd (Data.Workloads.mpeg7_doc wl)
         (Data.Workloads.imdb_doc wl))
  in
  pinned doc q1 [ ("Jaws", 1.); ("Jaws 2", 0.97619047619) ];
  pinned doc q2
    [
      ("Die Hard: With a Vengeance", 1.);
      ("Mission: Impossible II", 0.977852760736);
      ("Mission: Impossible", 0.0804294478528);
      ("Die Hard 2", 0.00819672131148);
    ];
  let fig2 =
    Op.ok Integrate.pp_error
      (integrate ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd Data.Addressbook.source_a
         Data.Addressbook.source_b)
  in
  let worlds =
    List.map
      (fun (p, forest) ->
        (String.concat "" (List.map (fun t -> Xml.Printer.to_string t) forest), p))
      (Worlds.merged fig2)
    |> List.sort compare
  in
  let person tels =
    String.concat ""
      (List.map (fun t -> "<person><nm>John</nm><tel>" ^ t ^ "</tel></person>") tels)
  in
  let want =
    List.sort compare
      [
        ("<addressbook>" ^ person [ "1111"; "2222" ] ^ "</addressbook>", 0.5);
        ("<addressbook>" ^ person [ "1111" ] ^ "</addressbook>", 0.25);
        ("<addressbook>" ^ person [ "2222" ] ^ "</addressbook>", 0.25);
      ]
  in
  if
    List.length worlds <> 3
    || not
         (List.for_all2
            (fun (w, p) (w', p') -> w = w' && Float.abs (p -. p') <= 1e-9)
            worlds want)
  then Op.wrong "Fig. 2 no longer has its three worlds"

(* Ranks every query of every item once: fills the expected-answer tables
   and the answer cache, and checks that each query takes the route the
   workload means it to take. *)
let warm ~route items queries_of eval =
  let direct = Obs.Metrics.counter "pquery.path.direct"
  and enum = Obs.Metrics.counter "pquery.path.enumerate" in
  List.iter
    (fun it ->
      List.iter
        (fun q ->
          let d0 = Obs.Metrics.count direct and e0 = Obs.Metrics.count enum in
          check_answers it q (eval it q);
          let took =
            if Obs.Metrics.count direct > d0 then `Direct
            else if Obs.Metrics.count enum > e0 then `Enumerate
            else `Pruned
          in
          if took <> route && took <> `Pruned then
            Op.wrong "%s %s: query left its intended route" it.label q)
        (queries_of it))
    items

(* Uncertain answers (0.02 < p < 0.98) of the item's queries, as feedback
   targets. *)
let targets it queries =
  List.concat_map
    (fun q ->
      List.filter_map
        (fun (a : Answer.t) ->
          if a.prob > 0.02 && a.prob < 0.98 then
            Some { fb_item = it; fb_query = q; fb_value = a.value }
          else None)
        (rank (doc_of it) q))
    queries

(* ---- the workload record ---------------------------------------------------------- *)

(* A deck lists every op of one round, each drawing only its small
   parameters (a name, a feedback target, the asserted truth) from the
   seed's stream. The loop shuffles and replays the deck, so every round
   runs the same mix: the share of each cost class within an op kind is
   fixed, and each kind's p50 and p90 fall inside a class rather than on
   the edge between two. *)
type t = {
  deck : (Random.State.t -> Op.t) list;
  items : item list;  (** every stored document, for bytes on disk / input *)
  sizes : string list;  (** input sizes, for the report *)
}

let repeat n x = List.init n (fun _ -> x)

let movie_sources () =
  [ ("confusing", Data.Workloads.confusing ()); ("typical", Data.Workloads.typical ()) ]
  @ List.map
      (fun n -> (Printf.sprintf "figure5-%d" n, Data.Workloads.figure5 ~n_imdb:n))
      [ 5; 10; 15; 20; 30; 40 ]

let movie_recipe ?third rules (wl : Data.Workloads.t) =
  recipe ~rules ~dtd:wl.dtd
    ([ Data.Workloads.mpeg7_doc wl; Data.Workloads.imdb_doc wl ] @ Option.to_list third)

(* One prune, one assert and one certainty call on [it], each on a target
   drawn from its uncertain answers to [queries]. *)
let feedback_round it queries =
  match Array.of_list (targets it queries) with
  | [||] -> Op.fail "%s: no uncertain answer to give feedback on" it.label
  | ts ->
      List.map (fun kind rng -> feedback_op rng kind (pick rng ts)) [ Prune; Assert; Certainty ]

let describe_items items =
  List.map
    (fun it -> Printf.sprintf "%s: %d nodes, %g worlds" it.label it.nodes it.worlds)
    items

let find items label = List.find (fun it -> it.label = label) items

(* ---- paper_movies ------------------------------------------------------------------ *)

let node_cap = 30_000.

let movie_queries =
  [
    q1;
    q2;
    {|//movie[genre="Action"]/title|};
    {|//movie[year=1995]/title|};
    {|//movie[.//director[contains(.,"Spielberg")]]/title|};
    "//movie/title";
  ]

let paper_movies ~seed:_ ~root =
  pin_paper ();
  (* Table I's "none" and "genre" rows exceed the cap on every source with
     confusers, and their stats alone take seconds there. *)
  let rule_sets =
    List.filter
      (fun (r : Rulesets.t) -> r.name <> "none" && r.name <> "genre")
      Rulesets.table1
    @ [ Rulesets.full; section6_rules ]
  in
  let items =
    List.concat_map
      (fun (src, (wl : Data.Workloads.t)) ->
        let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
        List.filter_map
          (fun (rules : Rulesets.t) ->
            match integration_stats ~rules ~dtd:wl.dtd a b with
            | Ok s when s.Integrate.nodes <= node_cap ->
                Some (make_item ~root (src ^ "." ^ rules.name) (movie_recipe rules wl))
            | Ok _ | Error _ -> None)
          rule_sets)
      (movie_sources ())
  in
  warm ~route:`Direct items (fun _ -> movie_queries) (fun it q ->
      Op.ok_string (query_store it.store it.label q));
  List.iter
    (fun it -> if it.worlds <= 64. then List.iter (check_direct it) movie_queries)
    items;
  let feedback_docs = List.filter (fun it -> it.worlds >= 2. && it.worlds <= 64.) items in
  (* Saves and loads of the small documents are dominated by fixed costs
     and GC slices, and their p50 swung by half between runs. Of three
     large documents (about 9,000, 17,700 and 27,100 nodes), the middle
     one takes 6 of 10 saves and loads per round and the others 2 each, so
     p50 and p90 fall in the middle of one document's costs. With eight
     documents once each, p50 sat on the edge between the fourth and fifth
     and p90 near the edge of the last. *)
  let stored =
    let d = find items in
    repeat 2 (d "figure5-5.genre_title_director")
    @ repeat 6 (d "figure5-40.genre_title_year_director")
    @ repeat 2 (d "confusing.genre_title")
  in
  (* Per round: every document integrated once, each (document, query) key
     asked three times — one integrate per three asks of a key keeps about
     a third of the asks cache misses — and the large documents saved and
     loaded as above. *)
  let deck =
    List.map (fun it _ -> integrate_op it) items
    @ List.concat_map
        (fun it ->
          List.concat_map (fun q -> repeat 3 (fun _ -> query_store_op it q)) movie_queries)
        items
    @ List.concat_map
        (fun it -> feedback_round it [ "//movie/title"; "//movie/director"; q1 ])
        feedback_docs
    @ List.map (fun it _ -> save_op it) stored
    @ List.map (fun it _ -> load_op it) stored
  in
  {
    deck;
    items;
    sizes =
      Printf.sprintf
        "%d documents x %d queries = %d answer-cache keys (capacity %d); feedback on %d \
         documents; %d saves and loads per round"
        (List.length items) (List.length movie_queries)
        (List.length items * List.length movie_queries)
        (Imprecise_pquery.Cache.capacity Imprecise_pquery.Cache.global)
        (List.length feedback_docs) (List.length stored)
      :: describe_items items;
  }

(* ---- worlds ------------------------------------------------------------------------ *)

(* Outside the direct fragment: counts and positions need whole worlds. *)
let big_rank_queries =
  [
    "count(//movie)";
    "//movie[1]/title";
    "//movie[last()]/year";
    {|count(//movie[genre="Action"])|};
  ]

let movie_rank_queries =
  big_rank_queries @ [ {|//movie[year=1995]/title | //movie[genre="Horror"]/title|} ]

let person_rank_queries =
  [
    "count(//person)";
    "//person[1]/tel";
    "//person/nm | //person/tel";
    {|count(//person[tel="1111"])|};
  ]

let worlds ~seed ~root =
  pin_paper ();
  let rng = Random.State.make [| seed; 2 |] in
  (* The third source re-reports one of the six paper movies in IMDB
     conventions, so the fold integrates it with every prior world. *)
  let third (wl : Data.Workloads.t) =
    let real = Array.of_list (List.filteri (fun i _ -> i < 6) wl.imdb) in
    Data.Workloads.imdb_doc { wl with imdb = [ pick rng real ] }
  in
  let title_year = Rulesets.movie ~title:true ~year:true () in
  let typical = Data.Workloads.typical () and confusing = Data.Workloads.confusing () in
  let fig5 n = Data.Workloads.figure5 ~n_imdb:n in
  let third_book =
    Tree.element "addressbook"
      [
        Tree.element "person" [ Tree.leaf "nm" "John"; Tree.leaf "tel" "1111" ];
        Tree.element "person"
          [
            Tree.leaf "nm" "Mary";
            Tree.leaf "tel" (Printf.sprintf "%04d" (Random.State.int rng 10000));
          ];
      ]
  in
  (* Folds start from documents with at most a few dozen worlds: the fold's
     output grows with the prior world count. *)
  let fig2 =
    make_item ~root "fig2"
      (recipe ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd
         [ Data.Addressbook.source_a; Data.Addressbook.source_b; third_book ])
  in
  let folds =
    List.map
      (fun (label, wl) -> make_item ~root label (movie_recipe ~third:(third wl) Rulesets.full wl))
      [ ("confusing.full", confusing); ("typical.full", typical); ("figure5-15.full", fig5 15) ]
  in
  let pairs =
    List.map
      (fun (label, rules, wl) -> make_item ~root label (movie_recipe rules wl))
      [
        ("typical.title", Rulesets.movie ~title:true (), typical);
        ("confusing.title-year", title_year, confusing);
        ("figure5-5.title-year", title_year, fig5 5);
        ("figure5-15.title-year", title_year, fig5 15);
        ("confusing.section6", section6_rules, confusing);
      ]
  in
  let items = (fig2 :: folds) @ pairs in
  let it = find items in
  let big = [ it "figure5-15.title-year"; it "confusing.section6" ] in
  let queries_of d =
    if d == fig2 then person_rank_queries
    else if List.memq d big then big_rank_queries
    else movie_rank_queries
  in
  warm ~route:`Enumerate items queries_of (fun it q -> rank (doc_of it) q);
  let ranks d n = List.concat_map (fun q -> repeat n (fun _ -> rank_op d q)) (queries_of d) in
  let fb_queries = [ "//movie/title"; "//movie/director"; "//person/tel" ] in
  (* Per round, with costs measured per document:
     - folds: 2 of 24 on fig2, 6 on confusing.full, 11 on typical.full
       (p50) and 5 on figure5-15.full (p90, in the middle of its class).
       The interner's memo makes each fold dearer than the last until it
       drops the memo, about every 600 ops, so a fold's cost spans a
       tenfold range: the p90 class needs many samples;
     - queries: 4 of 88 on the 2,520-world document and 16 on the
       448-world one (p90 inside it), the rest on the small documents;
     - feedback: a third on the three documents costing a few ms, two thirds
       on the 16- and 64-world ones (p50 and p90);
     - stores: 3 of 15 on smaller documents, 9 on typical.full and 3 on
       figure5-15.full, so p50 and p90 sit in the middle of one document's
       costs. A single typical.full load takes 17-28 ms, in two clusters
       (with and without a major GC slice); with 4 of 12, p50 sat at the
       edge of that class and flipped between the clusters from run to
       run. A save takes 5-30 ms and its cost spreads widely, so each
       store is saved twice per round for more samples. *)
  let stored =
    List.map it [ "typical.title"; "confusing.full"; "figure5-15.title-year" ]
    @ repeat 9 (it "typical.full")
    @ repeat 3 (it "figure5-15.full")
  in
  let deck =
    List.concat_map
      (fun (label, n) -> repeat n (fun _ -> integrate_op (it label)))
      [ ("fig2", 2); ("confusing.full", 6); ("typical.full", 11); ("figure5-15.full", 5) ]
    @ List.concat_map
        (fun d -> ranks d 2)
        ((fig2 :: folds) @ List.filter (fun d -> not (List.memq d big)) pairs)
    @ ranks (it "figure5-15.title-year") 4
    @ ranks (it "confusing.section6") 1
    @ List.concat_map
        (fun d -> feedback_round d fb_queries)
        [ fig2; it "confusing.full"; it "typical.full" ]
    @ List.concat_map
        (fun label -> feedback_round (it label) fb_queries @ feedback_round (it label) fb_queries)
        [ "typical.title"; "confusing.title-year"; "figure5-5.title-year" ]
    @ List.concat_map (fun d -> repeat 2 (fun _ -> save_op d)) stored
    @ List.map (fun d _ -> load_op d) stored
  in
  {
    deck;
    items;
    sizes =
      Printf.sprintf "%d documents, %d folded from three sources" (List.length items)
        (1 + List.length folds)
      :: describe_items items;
  }

(* ---- addressbook_scale ---------------------------------------------------------------- *)

let book_sizes = [| 450; 475; 500; 525; 550; 575; 600; 625 |]

let broad_queries = [ "//person/tel"; "//person/nm" ]

let point_query name = Printf.sprintf "//person[nm='%s']/tel" name

let fields tag books =
  List.concat_map
    (fun b ->
      List.filter_map (fun p -> Tree.field p tag) (Tree.child_elements b))
    books

let persons books =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun p ->
          match (Tree.field p "nm", Tree.field p "tel") with
          | Some n, Some t -> Some (n, t)
          | _ -> None)
        (Tree.child_elements b))
    books

module SS = Set.Make (String)

(* A large book and what its sources say, for checking answers. *)
type book = {
  book : item;
  names : string array;  (** distinct person names, to draw lookups from *)
  name_set : SS.t;
  tels : SS.t;
  tels_of : (string, SS.t) Hashtbl.t;  (** point query -> that person's numbers *)
}

(* Every broad answer set is exactly the sources' values; a point lookup
   returns only numbers that person has in some source. *)
let check_book_answers b q answers =
  let values = SS.of_list (List.map (fun (a : Answer.t) -> a.value) answers) in
  if q = "//person/nm" then (
    if not (SS.equal values b.name_set) then
      Op.wrong "%s: answers differ from the source names" q;
    List.iter
      (fun (a : Answer.t) ->
        if Float.abs (a.prob -. 1.) > 1e-9 then Op.wrong "%s: P(%s) = %g, not 1" q a.value a.prob)
      answers)
  else if q = "//person/tel" then (
    if not (SS.equal values b.tels) then Op.wrong "%s: answers differ from the source numbers" q)
  else
    match Hashtbl.find_opt b.tels_of q with
    | Some allowed ->
        if not (SS.subset values allowed && answers <> []) then
          Op.wrong "%s: answers are not that person's numbers" q
    | None -> Op.wrong "%s: unknown person" q

let addressbook_scale ~seed ~root =
  pin_paper ();
  let blocker = Blocking.key ~field:"nm" () in
  let book_recipe (a, b) =
    recipe ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd ~factorize:true ~blocker [ a; b ]
  in
  let books =
    Array.to_list
      (Array.mapi
         (fun i n ->
           let a, b = Data.Addressbook.larger n ((seed * 7919) + i) in
           let tels_of = Hashtbl.create 1024 in
           List.iter
             (fun (nm, tel) ->
               let q = point_query nm in
               let prev = Option.value ~default:SS.empty (Hashtbl.find_opt tels_of q) in
               Hashtbl.replace tels_of q (SS.add tel prev))
             (persons [ a; b ]);
           let name_set = SS.of_list (fields "nm" [ a; b ]) in
           {
             book = make_item ~root (Printf.sprintf "book%d" i) (book_recipe (a, b));
             names = Array.of_list (SS.elements name_set);
             name_set;
             tels = SS.of_list (fields "tel" [ a; b ]);
             tels_of;
           })
         book_sizes)
  in
  (* Feedback goes to small books of exactly nine worlds (two persons whose
     number changed): pruning even a 300-person book costs seconds per call,
     and a fixed world count keeps the cost the same for every seed. A call
     takes about 1 ms, and its cost still varies by book, so eight books get
     two rounds of feedback each per round of the deck. *)
  let rng = Random.State.make [| seed; 3 |] in
  let rec small_books acc k attempt =
    if k = 0 then List.rev acc
    else if attempt > 500 then Op.fail "no small address book with 9 worlds"
    else
      let it =
        make_item ~root
          (Printf.sprintf "small%d" attempt)
          (book_recipe (Data.Addressbook.larger 8 (Random.State.bits rng)))
      in
      if it.worlds = 9. then small_books (it :: acc) (k - 1) (attempt + 1)
      else (
        rm_rf it.dir;
        small_books acc k (attempt + 1))
  in
  let small = small_books [] 8 0 in
  let small_queries = [ "//person/tel"; "//person/nm" ] in
  List.iter (fun it -> List.iter (check_direct it) small_queries) small;
  let query b q = query_store_op ~also:(check_book_answers b q) b.book q in
  (* Per round: every book integrated, saved and loaded twice; one broad
     scan per query form and eight point lookups per book, so 1 in 5
     queries is a broad scan and sets p90. *)
  let deck =
    List.concat_map
      (fun b ->
        repeat 2 (fun _ -> integrate_op b.book)
        @ List.map (fun q _ -> query b q) broad_queries
        @ repeat 8 (fun rng -> query b (point_query (pick rng b.names)))
        @ repeat 2 (fun _ -> save_op b.book)
        @ repeat 2 (fun _ -> load_op b.book))
      books
    @ List.concat_map
        (fun it -> feedback_round it small_queries @ feedback_round it small_queries)
        small
  in
  let large = List.map (fun b -> b.book) books in
  {
    deck;
    items = large @ small;
    sizes =
      Printf.sprintf
        "%d books of n = %d..%d persons per source; 1 in 5 queries a broad scan; feedback on %d \
         small books"
        (List.length books) book_sizes.(0)
        book_sizes.(Array.length book_sizes - 1)
        (List.length small)
      :: describe_items (large @ small);
  }

let all =
  [ ("paper_movies", paper_movies); ("worlds", worlds); ("addressbook_scale", addressbook_scale) ]
