(* Structural-feedback certification.

   For queries in the direct fragment, `Feedback.assert_answer` conditions
   and `Feedback.prune` prunes on Direct's emission walk, without
   enumerating worlds. Their meanings are the enumeration-based routes kept
   here as references:

   - assert: `Feedback.condition` with the world predicate "the value is
     (not) in the query's answer" — enumerate and merge every world,
     filter, renormalise. The structural posterior must give the same
     world distribution to 1e-12, and [Contradiction] must come back iff
     the reference's surviving mass is 0;
   - prune: the enumeration route's hypothetical-rank prune,
     `Feedback.prune_by_ranks` (one `Pquery.rank` per possibility of every
     probability node, deepest first, two rounds, each node read as
     earlier prunes of the round left it). Both must fail alike or give
     the same world distribution to 1e-12 — so one structural pass
     reaches the two-round fixpoint.

   Every posterior must validate. Sources: random probabilistic documents
   (`Random_docs`) with queries over the generator's alphabet, Fig. 2
   under `//person/tel` and `//person/nm`, and the session benchmark's
   movie feedback documents under `//movie/title`, `//movie/director` and
   Q1. Values are each answer plus one absent value, asserted both true
   and false (on the movie documents: the uncertain answers, two certain
   ones and the absent value).

   Runs under `dune runtest` and alone via `dune build @feedback-stress`;
   the random case count is overridable through FEEDBACK_CASES. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Feedback = Imprecise.Feedback
module Pquery = Imprecise.Pquery
module Answer = Imprecise.Answer
module Naive = Imprecise_pquery.Naive
module Obs = Imprecise.Obs
module Rulesets = Imprecise.Rulesets
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads

let cases =
  match Sys.getenv_opt "FEEDBACK_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let failures = ref 0

let fail label fmt =
  incr failures;
  Fmt.epr "FAIL %s: " label;
  Fmt.epr (fmt ^^ "@.")

(* ---- world distributions ---------------------------------------------------------- *)

module Dist = Map.Make (struct
  type t = Tree.t list

  let compare = List.compare Tree.compare
end)

let distribution doc =
  List.fold_left
    (fun m (p, forest) ->
      Dist.update
        (List.map Tree.canonical forest)
        (fun q -> Some (p +. Option.value ~default:0. q))
        m)
    Dist.empty (Worlds.merged doc)

let show_world forest = String.concat "" (List.map Imprecise.Xml.Printer.to_string forest)

let same_distribution label ~what a b =
  let da = distribution a and db = distribution b in
  Dist.iter
    (fun k _ ->
      let p = Option.value ~default:0. (Dist.find_opt k da)
      and q = Option.value ~default:0. (Dist.find_opt k db) in
      if Float.abs (p -. q) > 1e-12 then
        fail label "%s: world %s: structural %.15g, reference %.15g" what (show_world k) p q)
    (Dist.union (fun _ p _ -> Some p) da db)

let valid label what doc =
  match Pxml.validate doc with
  | Ok () -> ()
  | Error msg -> fail label "%s: invalid posterior: %s" what msg

(* ---- one case ----------------------------------------------------------------------- *)

let c_direct = Obs.Metrics.counter "feedback.path.direct"

let compared = ref 0

let enumerated = ref 0

let contradictions = ref 0

(* Queries outside the fragment (and P005/P006 documents) take the
   enumeration route, which runs the references' own code: such a case
   only counts. *)
let check_case label doc ~query ~value ~correct =
  let label = Printf.sprintf "%s, %s %S %b" label query value correct in
  let expr = Imprecise.Xpath.Parser.parse_exn query in
  let d0 = Obs.Metrics.count c_direct in
  let posterior = Feedback.assert_answer doc ~query ~value ~correct in
  if Obs.Metrics.count c_direct = d0 then incr enumerated
  else begin
    incr compared;
    (match
       ( posterior,
         Feedback.condition doc (fun forest ->
             List.mem value (Naive.answer_in_world forest expr) = correct) )
     with
    | Ok post, Ok reference ->
        valid label "assert" post;
        same_distribution label ~what:"assert" post reference
    | Error Feedback.Contradiction, Error Feedback.Contradiction -> incr contradictions
    | Ok _, Error e -> fail label "assert: reference %a, structural succeeded" Feedback.pp_error e
    | Error e, Ok _ -> fail label "assert: structural %a, reference succeeded" Feedback.pp_error e
    | Error e, Error e' ->
        fail label "assert: structural %a, reference %a" Feedback.pp_error e Feedback.pp_error e');
    match
      (Feedback.prune doc ~query ~value ~correct, Feedback.prune_by_ranks doc ~query ~value ~correct)
    with
    | Ok pruned, Ok reference ->
        valid label "prune" pruned;
        same_distribution label ~what:"prune" pruned reference
    | Error Feedback.Contradiction, Error Feedback.Contradiction -> ()
    | Ok _, Error e -> fail label "prune: reference %a, structural succeeded" Feedback.pp_error e
    | Error e, Ok _ -> fail label "prune: structural %a, reference succeeded" Feedback.pp_error e
    | Error e, Error e' ->
        fail label "prune: structural %a, reference %a" Feedback.pp_error e Feedback.pp_error e'
  end

(* Each answer (or, with [pick], a selection of them) plus one absent
   value, asserted true and false. *)
let check_values ?(pick = Fun.id) label doc query =
  if Pquery.used_strategy doc query = `Enumerate then incr enumerated
  else
  let answers = List.map (fun (a : Answer.t) -> a.Answer.value) (pick (Pquery.rank doc query)) in
  List.iter
    (fun value ->
      List.iter (fun correct -> check_case label doc ~query ~value ~correct) [ true; false ])
    (answers @ [ "no such value" ])

(* ---- random documents -------------------------------------------------------------- *)

(* The generator's alphabet (tags a b c item name, words x y zz hello 42):
   fragment shapes, plus binders that can nest (P005) and count(...),
   which take the enumeration route on both sides. *)
let random_queries =
  [|
    "//a"; "//a/b"; "//item/name"; {|//item[name="42"]/b|}; "//a/text()";
    {|//a[contains(.,"z")]|}; "/descendant::a"; "item/name"; {|//b[.="x"]|};
    "//c"; "//*"; "count(//a)";
  |]

(* Two content dists can put two text nodes side by side in a world. The
   ranked answer reads such a world as it is, but `Feedback.condition`
   reads its canonical form, where the texts are merged — so text() values
   differ between the two, and such documents are skipped for text()
   queries. *)
let adjacent_texts doc =
  let rec adjacent = function
    | Tree.Text _ :: (Tree.Text _ :: _) -> true
    | t :: rest -> (match t with Tree.Element (_, _, cs) -> adjacent cs | Tree.Text _ -> false) || adjacent rest
    | [] -> false
  in
  Seq.exists (fun (_, forest) -> adjacent forest) (Worlds.enumerate doc)

let skipped = ref 0

let random_case seed =
  let rng = Prng.make seed in
  let wrap, rng = Prng.int rng 2 in
  let d, _ = Random_docs.pxml rng ~depth:2 in
  let doc = if wrap = 0 then d else Pxml.certain [ Pxml.elem "root" [ d ] ] in
  let query = random_queries.(seed mod Array.length random_queries) in
  if Pxml.world_count doc > 2000. then ()
  else if String.ends_with ~suffix:"text()" query && adjacent_texts doc then incr skipped
  else check_values (Printf.sprintf "random seed %d" seed) doc query

(* ---- Fig. 2 and the session benchmark's feedback documents ------------------------- *)

let fig2 () =
  let doc =
    Result.get_ok
      (Imprecise.integrate ~rules:Rulesets.generic ~dtd:Addressbook.dtd Addressbook.source_a
         Addressbook.source_b)
  in
  List.iter (check_values "fig2" doc) [ "//person/tel"; "//person/nm" ]

let q1 = {|//movie[.//genre="Horror"]/title|}

let movie_docs () =
  let pair rules (wl : Workloads.t) =
    Imprecise.integrate ~rules ~dtd:wl.dtd (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl)
  in
  let fold rules (wl : Workloads.t) =
    let third = Workloads.imdb_doc { wl with imdb = [ List.hd wl.imdb ] } in
    Imprecise.integrate_many ~rules ~dtd:wl.dtd
      [ Workloads.mpeg7_doc wl; Workloads.imdb_doc wl; third ]
  in
  let title_year = Rulesets.movie ~title:true ~year:true () in
  [
    ("typical.full", pair Rulesets.full (Workloads.typical ()));
    ("typical.title", pair (Rulesets.movie ~title:true ()) (Workloads.typical ()));
    ("confusing.title-year", pair title_year (Workloads.confusing ()));
    ("figure5-5.title-year", pair title_year (Workloads.figure5 ~n_imdb:5));
    ( "figure5-5.genre_title_year",
      pair (Rulesets.movie ~genre:true ~title:true ~year:true ()) (Workloads.figure5 ~n_imdb:5) );
    ("figure5-15.full", pair Rulesets.full (Workloads.figure5 ~n_imdb:15));
    ("confusing.full, three sources", fold Rulesets.full (Workloads.confusing ()));
  ]

(* The uncertain answers, two certain ones. *)
let pick answers =
  let uncertain, certain = List.partition (fun (a : Answer.t) -> a.Answer.prob < 1. -. 1e-9) answers in
  uncertain @ List.filteri (fun i _ -> i < 2) certain

let movies () =
  List.iter
    (fun (label, doc) ->
      match doc with
      | Error e -> fail label "integration failed: %a" Imprecise.Integrate.pp_error e
      | Ok doc ->
          List.iter (check_values ~pick label doc) [ "//movie/title"; "//movie/director"; q1 ])
    (movie_docs ())

let () =
  for seed = 0 to cases - 1 do
    random_case seed
  done;
  fig2 ();
  movies ();
  if !failures > 0 then begin
    Fmt.epr "%d structural-feedback failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "structural feedback: %d random documents + Fig. 2 + 7 movie documents; %d (value, truth) \
     cases on the direct route compared equal to the references (%d contradictions alike), %d \
     enumerated, %d skipped (adjacent texts)@."
    cases !compared !contradictions !enumerated !skipped
