(* Distinct-world certification.

   `Worlds.merged` computes the distribution of distinct worlds in one
   bottom-up pass, merging equal local worlds where they arise. Its meaning
   is the enumerate-and-merge code kept below as [reference]: enumerate
   every choice combination, canonicalise each root tree, merge equal
   forests in a map, sort by probability. This harness checks that the two
   give the same list — same forests, in the same order, probabilities to
   1e-12 — on:

   - random probabilistic documents at depth 2, and at depth 3 where the
     reference's enumeration stays within 5,000 combinations;
   - random integrations of two plain trees (attributes, mixed content);
   - hand-made documents: adjacent texts from two content dists,
     whitespace-only text between elements, unsorted attributes,
     zero-probability choices, texts side by side at the root;
   - decoded `.ipx` documents, whose subtrees are physically shared;
   - Fig. 2 and the session benchmark's movie feedback documents.

   It also checks that `Feedback.certainty` on the feedback table of
   EXPERIMENTS.md (typical conditions, two count prunes) is the
   reference's most likely distinct world and reads 0.90, 0.95, 1.00.

   Runs under `dune runtest` and alone via `dune build @merged-stress`;
   the random case count is overridable through MERGED_CASES. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Feedback = Imprecise.Feedback
module Bincodec = Imprecise.Bincodec
module Rulesets = Imprecise.Rulesets
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads

let cases =
  match Sys.getenv_opt "MERGED_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let failures = ref 0

let compared = ref 0

let fail label fmt =
  incr failures;
  Fmt.epr "FAIL %s: " label;
  Fmt.epr (fmt ^^ "@.")

(* ---- the reference: enumerate every world, merge in a map ------------------------- *)

module Key = struct
  type t = Tree.t list

  let compare = List.compare Tree.compare
end

module M = Map.Make (Key)

let reference d =
  let m =
    Seq.fold_left
      (fun m (p, forest) ->
        let key = List.map Tree.canonical forest in
        let prev = Option.value ~default:0. (M.find_opt key m) in
        M.add key (prev +. p) m)
      M.empty (Worlds.enumerate d)
  in
  M.bindings m
  |> List.map (fun (k, p) -> (p, k))
  |> List.sort (fun (p, _) (q, _) -> Float.compare q p)

(* ---- comparison -------------------------------------------------------------------- *)

let show_world forest = String.concat "" (List.map Imprecise.Xml.Printer.to_string forest)

let same_forest f g = List.equal (fun a b -> Tree.compare_raw a b = 0) f g

(* Same worlds in the same order. Worlds of exactly equal probability
   come in [Tree.compare_raw] order on both sides. Merging in a
   different order can move a probability by an ulp, so two worlds
   whose reference probabilities differ by rounding only may swap. *)
let check label doc =
  incr compared;
  let got = Worlds.merged doc and want = reference doc in
  if List.length got <> List.length want then
    fail label "%d distinct worlds, reference %d" (List.length got) (List.length want)
  else
    List.iteri
      (fun i ((p, f), (q, g)) ->
        if Float.abs (p -. q) > 1e-12 then
          fail label "world %d: probability %.17g, reference %.17g" i p q
        else if not (same_forest f g) then
          match List.find_opt (fun (_, g') -> same_forest f g') want with
          | Some (q', _) when q' <> q && Float.abs (p -. q') <= 1e-12 -> ()
          | _ -> fail label "world %d: %s, reference %s" i (show_world f) (show_world g))
      (List.combine got want)

(* ---- random documents ------------------------------------------------------------- *)

let random_pxml seed ~depth =
  let rng = Prng.make seed in
  let d, rng = Random_docs.pxml rng ~depth in
  let wrap, _ = Prng.int rng 2 in
  if wrap = 0 then d else Pxml.certain [ Pxml.elem "root" [ d ] ]

let oracle = Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"item" ~field:"name" ]

let random_integration seed =
  let rng = Prng.make seed in
  let a, rng = Random_docs.xml rng ~depth:2 in
  let b, rng = Random_docs.xml rng ~depth:2 in
  let factorize, _ = Prng.int rng 2 in
  let cfg = Integrate.config ~oracle ~factorize:(factorize = 1) () in
  let root t = Tree.element "root" [ t ] in
  Integrate.integrate cfg (root a) (root b) |> Result.to_option

let random_cases () =
  for seed = 0 to cases - 1 do
    check (Printf.sprintf "depth 2, seed %d" seed) (random_pxml seed ~depth:2);
    let deep = random_pxml (seed + 1_000_000) ~depth:3 in
    if Pxml.world_count deep <= 5000. then
      check (Printf.sprintf "depth 3, seed %d" seed) deep;
    match random_integration seed with
    | Some doc when Pxml.world_count doc <= 5000. ->
        check (Printf.sprintf "integration, seed %d" seed) doc
    | _ -> ()
  done

(* ---- hand-made documents ----------------------------------------------------------- *)

let half a b = Pxml.dist [ Pxml.choice ~prob:0.5 a; Pxml.choice ~prob:0.5 b ]

let e ?attrs tag content = Pxml.elem ?attrs tag content

let t = Pxml.text

let hand_made () =
  let cases =
    [
      (* "y" then "zz" from two dists reads "yzz", as does "yz" then "z" *)
      ( "adjacent texts from two content dists",
        Pxml.certain
          [ e "a" [ half [ t "y" ] [ t "yz" ]; half [ t "zz" ] [ t "z" ] ] ] );
      ( "adjacent texts around an element",
        Pxml.certain
          [ e "a" [ half [ t " x" ] [ t "x " ]; half [ e "b" [] ] [ t " " ]; half [ t "y" ] [] ] ]
      );
      ( "whitespace-only text between elements",
        Pxml.certain
          [
            e "a"
              [
                Pxml.certain [ e "b" [] ];
                half [ t "  \n" ] [ t "\t" ];
                half [ e "c" [] ] [ t "  " ];
              ];
          ] );
      ( "unsorted attributes",
        half
          [ e ~attrs:[ ("z", "1"); ("a", "2") ] "r" [] ]
          [ e ~attrs:[ ("a", "2"); ("z", "1") ] "r" [] ] );
      ( "attributes sorted under a merged child",
        Pxml.certain
          [
            e "r"
              [
                half
                  [ e ~attrs:[ ("k2", "x"); ("k1", "y") ] "b" [ Pxml.certain [ t " v " ] ] ]
                  [ e ~attrs:[ ("k1", "y"); ("k2", "x") ] "b" [ Pxml.certain [ t "v" ] ] ];
                half [ t "w" ] [ t "w" ];
              ];
          ] );
      ( "zero-probability choices",
        Pxml.certain
          [
            e "a"
              [
                Pxml.dist [ Pxml.choice ~prob:0. [ e "never" [] ]; Pxml.choice ~prob:1. [ t "x" ] ];
                Pxml.dist
                  [
                    Pxml.choice ~prob:0.3 [ e "b" [] ];
                    Pxml.choice ~prob:0. [ e "c" [] ];
                    Pxml.choice ~prob:0.7 [ e "b" [] ];
                  ];
              ];
          ] );
      ("texts side by side at the root", half [ t "a"; t "b" ] [ t " a "; t "b" ]);
      ("empty world", half [] [ t "  " ]);
      ( "equal worlds, different combinations",
        Pxml.certain
          [ e "a" [ half [ e "b" []; e "c" [] ] [ e "b" [] ]; half [] [ e "c" [] ] ] ] );
    ]
  in
  List.iter (fun (label, doc) -> check label doc) cases

(* ---- decoded .ipx documents, Fig. 2 and the movie feedback documents ---------------- *)

let fig2 () =
  Result.get_ok
    (Imprecise.integrate ~rules:Rulesets.generic ~dtd:Addressbook.dtd Addressbook.source_a
       Addressbook.source_b)

let movie_docs () =
  let pair rules (wl : Workloads.t) =
    Result.get_ok
      (Imprecise.integrate ~rules ~dtd:wl.dtd (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl))
  in
  let title_year = Rulesets.movie ~title:true ~year:true () in
  [
    ("typical.full", pair Rulesets.full (Workloads.typical ()));
    ("typical.title", pair (Rulesets.movie ~title:true ()) (Workloads.typical ()));
    ("confusing.title-year", pair title_year (Workloads.confusing ()));
    ("figure5-5.title-year", pair title_year (Workloads.figure5 ~n_imdb:5));
    ("figure5-15.full", pair Rulesets.full (Workloads.figure5 ~n_imdb:15));
  ]

let decoded doc =
  match Bincodec.of_string (Bincodec.doc_to_string doc) with
  | Ok (Bincodec.Probabilistic d) -> d
  | Ok (Bincodec.Certain _) | Error _ -> failwith "decoded: not a probabilistic frame"

module Objects = Hashtbl.Make (struct
  type t = Pxml.node

  let equal = ( == )

  let hash = Pxml.hash_node
end)

(* A decoded frame rebuilds deep-equal subtrees as one object: the walk
   must find a physically shared node (not only equal ones), so it keys
   on identity where [Pxml.Table] would also equate copies. *)
let shares_nodes doc =
  let seen = Objects.create 64 in
  let shared = ref false in
  let rec node n =
    match n with
    | Pxml.Text _ -> ()
    | Pxml.Elem (_, _, content) ->
        if Objects.mem seen n then shared := true
        else begin
          Objects.add seen n ();
          List.iter dist content
        end
  and dist (d : Pxml.dist) = List.iter (fun (c : Pxml.choice) -> List.iter node c.Pxml.nodes) d.Pxml.choices in
  dist doc;
  !shared

let documents () =
  let docs = ("fig2", fig2 ()) :: movie_docs () in
  List.iter
    (fun (label, doc) ->
      if Pxml.world_count doc <= 5000. then check label doc;
      let d = decoded doc in
      if not (shares_nodes d) then fail label "decoded frame shares no node";
      if Pxml.world_count d <= 5000. then check (label ^ ", decoded") d)
    docs

(* ---- the feedback table of EXPERIMENTS.md ------------------------------------------- *)

let feedback_table () =
  let wl = Workloads.typical () in
  let doc =
    Result.get_ok
      (Imprecise.integrate ~rules:Rulesets.full ~dtd:wl.dtd (Workloads.mpeg7_doc wl)
         (Workloads.imdb_doc wl))
  in
  let steps =
    [ "count(//movie[title='Twelve Monkeys'])"; "count(//movie[title='GoldenEye'])" ]
  in
  let docs =
    List.rev
      (List.fold_left
         (fun acc query ->
           match Feedback.prune (List.hd acc) ~query ~value:"1" ~correct:true with
           | Ok d -> d :: acc
           | Error e -> Fmt.failwith "feedback table: %a" Feedback.pp_error e)
         [ doc ] steps)
  in
  List.iter2
    (fun (i, d) printed ->
      let label = Printf.sprintf "feedback table, step %d" i in
      check label d;
      let c = Feedback.certainty ~limit:2e5 d in
      let want = match reference d with [] -> 0. | (p, _) :: _ -> p in
      if Float.abs (c -. want) > 1e-12 then fail label "certainty %.17g, reference %.17g" c want;
      if Printf.sprintf "%.2f" c <> printed then fail label "certainty %.2f, table %s" c printed)
    (List.mapi (fun i d -> (i, d)) docs)
    [ "0.90"; "0.95"; "1.00" ]

let () =
  random_cases ();
  hand_made ();
  documents ();
  feedback_table ();
  if !failures > 0 then begin
    Fmt.epr "%d distinct-world failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "distinct worlds: %d random seeds + hand-made, decoded and movie documents; %d documents \
     merged equal to the enumerating reference; the feedback table's certainty unchanged@."
    cases !compared
