(* Compaction certification.

   `Compact.compact` is one bottom-up pass over distinct nodes, memoised on
   `Pxml.Table`, that merges equal possibilities through one hash lookup
   each. Its meaning is the compaction kept below as [reference]: the same
   rules applied occurrence by occurrence, equal possibilities found by
   comparing every pair, and the whole pass rerun until [Pxml.equal] sees
   no change. This harness checks that both give equal documents
   ([Pxml.equal]), that the one-pass result is already a fixpoint, and that
   it validates when its input did, on:

   - random probabilistic documents (`Random_docs`), as generated and with
     redundancy added;
   - fold outputs: integrations of two random trees and three-source folds,
     with redundancy added (integration compacts its own output);
   - feedback posteriors: `Direct.condition` and `Direct.prune`'s raw
     documents, before the compaction `Feedback` runs on them, on random
     documents and Fig. 2.

   Redundancy means a possibility split into two separately allocated
   equal halves, a zero-probability possibility, a certain probability
   node split in two, an empty certain probability node, and a node whose
   mass drifts from 1 by 1e-7: each is a rule of the compaction. The harness also counts the reference's
   fixpoint loop: how many documents needed its second, confirming pass,
   and how many a third.

   Runs under `dune runtest` and alone via `dune build @compact-stress`;
   the random case count is overridable through COMPACT_CASES. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Compact = Imprecise.Compact
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Rulesets = Imprecise.Rulesets
module Direct = Imprecise_pquery.Direct
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Addressbook = Imprecise.Data.Addressbook

let cases =
  match Sys.getenv_opt "COMPACT_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let failures = ref 0

let fail label fmt =
  incr failures;
  Fmt.epr "FAIL %s: " label;
  Fmt.epr (fmt ^^ "@.")

(* ---- the reference: pairwise merge, rerun to a fixpoint --------------------------- *)

let fuse_content (content : Pxml.dist list) : Pxml.dist list =
  let flush pending acc =
    match List.concat (List.rev pending) with
    | [] -> acc
    | nodes -> Pxml.certain nodes :: acc
  in
  let rec go pending acc = function
    | [] -> List.rev (flush pending acc)
    | (d : Pxml.dist) :: rest ->
        if Pxml.is_certain_choice_list d.choices then
          go ((List.hd d.choices).nodes :: pending) acc rest
        else go [] (d :: flush pending acc) rest
  in
  go [] [] content

let rec compact_node (n : Pxml.node) : Pxml.node =
  match n with
  | Pxml.Text _ -> n
  | Pxml.Elem (tag, attrs, content) ->
      Pxml.Elem (tag, attrs, fuse_content (List.map compact_dist content))

and compact_dist (d : Pxml.dist) : Pxml.dist =
  let choices =
    List.map (fun (c : Pxml.choice) -> { c with nodes = List.map compact_node c.nodes }) d.choices
  in
  let kept = List.filter (fun (c : Pxml.choice) -> not (c.prob <= Compact.prune_threshold)) choices in
  let kept = if kept = [] then choices else kept in
  let merged =
    List.fold_left
      (fun acc (c : Pxml.choice) ->
        let rec insert = function
          | [] -> [ c ]
          | (c' : Pxml.choice) :: rest ->
              if List.equal Pxml.equal_node c'.nodes c.nodes then
                { c' with prob = c'.prob +. c.prob } :: rest
              else c' :: insert rest
        in
        insert acc)
      [] kept
  in
  let total = List.fold_left (fun acc (c : Pxml.choice) -> acc +. c.prob) 0. merged in
  if Float.is_nan total then raise (Pxml.Invalid "possibility probability is NaN");
  let normalised =
    if total > 0. && Float.abs (total -. 1.) > Pxml.epsilon then
      List.map (fun (c : Pxml.choice) -> { c with prob = c.prob /. total }) merged
    else merged
  in
  Pxml.dist_unchecked normalised

(* documents whose loop ran a second pass, and a third *)
let confirming = ref 0

let third_pass = ref 0

let reference d =
  let rec go pass d =
    let d' = compact_dist d in
    if Pxml.equal d d' then d'
    else begin
      if pass = 0 then incr confirming;
      if pass = 1 then incr third_pass;
      go (pass + 1) d'
    end
  in
  go 0 d

(* ---- comparison -------------------------------------------------------------------- *)

let compared = ref 0

let check label doc =
  incr compared;
  let expected = reference doc and got = Compact.compact doc in
  if not (Pxml.equal got expected) then
    fail label "one pass differs from the reference:@.  got      %a@.  expected %a" Pxml.pp got
      Pxml.pp expected;
  if not (Pxml.equal (Compact.compact got) got) then
    fail label "a second pass changes the result";
  if Result.is_ok (Pxml.validate doc) then
    match Pxml.validate got with
    | Ok () -> ()
    | Error msg -> fail label "the result is invalid: %s" msg

(* ---- redundancy ---------------------------------------------------------------------- *)

let rec copy_node (n : Pxml.node) =
  match n with
  | Pxml.Text s -> Pxml.Text (String.sub s 0 (String.length s))
  | Pxml.Elem (tag, attrs, content) -> Pxml.Elem (tag, attrs, List.map copy_dist content)

and copy_dist (d : Pxml.dist) =
  Pxml.dist_unchecked
    (List.map (fun (c : Pxml.choice) -> { c with nodes = List.map copy_node c.nodes }) d.choices)

(* [bloat rng d] adds, at random places, redundancy that compaction
   removes, and probability mass that drifts from 1 by 1e-7, which it
   renormalises; the world distribution is unchanged. *)
let bloat rng d =
  let rng = ref rng in
  let roll k =
    let v, r = Prng.int !rng k in
    rng := r;
    v = 0
  in
  let rec node (n : Pxml.node) =
    match n with
    | Pxml.Text _ -> n
    | Pxml.Elem (tag, attrs, content) ->
        let content =
          List.concat_map
            (fun (d : Pxml.dist) ->
              let d = dist d in
              if Pxml.is_certain_choice_list d.Pxml.choices && roll 3 then
                match (List.hd d.Pxml.choices).nodes with
                | x :: (_ :: _ as rest) -> [ Pxml.certain [ x ]; Pxml.certain rest ]
                | _ -> [ d; Pxml.certain [] ]
              else [ d ])
            content
        in
        Pxml.Elem (tag, attrs, content)
  and dist (d : Pxml.dist) =
    let choices =
      List.concat_map
        (fun (c : Pxml.choice) ->
          let c = { c with nodes = List.map node c.nodes } in
          if roll 4 then
            [
              { c with prob = c.prob /. 2. };
              { Pxml.prob = c.prob /. 2.; nodes = List.map copy_node c.nodes };
            ]
          else [ c ])
        d.choices
    in
    let choices = if roll 5 then choices @ [ Pxml.choice ~prob:0. [ Pxml.text "gone" ] ] else choices in
    let choices =
      if roll 6 then List.map (fun (c : Pxml.choice) -> { c with prob = c.prob *. (1. +. 1e-7) }) choices
      else choices
    in
    Pxml.dist_unchecked choices
  in
  dist d

(* ---- sources --------------------------------------------------------------------------- *)

let oracle = Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"item" ~field:"name" ]

let cfg = Integrate.config ~oracle ()

let reroot t = Tree.element "root" [ t ]

let random_case seed =
  let label = Printf.sprintf "random seed %d" seed in
  let rng = Prng.make seed in
  let d, rng = Random_docs.pxml rng ~depth:2 in
  check label d;
  check (label ^ ", bloated") (bloat rng d)

let fold_case seed =
  let label = Printf.sprintf "fold seed %d" seed in
  let rng = Prng.make (1_000_000 + seed) in
  let a, rng = Random_docs.xml rng ~depth:2 in
  let b, rng = Random_docs.xml rng ~depth:2 in
  let c, rng = Random_docs.xml rng ~depth:2 in
  let a = reroot a and b = reroot b and c = reroot c in
  (match Integrate.integrate cfg a b with
  | Ok doc -> check (label ^ ", two sources") (bloat rng doc)
  | Error _ -> ());
  match Result.bind (Integrate.integrate cfg a b) (fun d -> Integrate.integrate_incremental cfg d c) with
  | Ok doc -> check (label ^ ", three sources") (bloat rng doc)
  | Error _ -> ()

let queries = [| "//a"; "//b/text()"; "//item/name"; "//a/b"; "//c" |]

let posteriors label doc query =
  let expr = Imprecise.Xpath.Parser.parse_exn query in
  match Direct.rank_expr doc expr with
  | exception Direct.Unsupported _ -> ()
  | answers ->
      List.iter
        (fun value ->
          List.iter
            (fun present ->
              let label = Printf.sprintf "%s, %s %S %b" label query value present in
              (match Direct.condition doc expr ~value ~present with
              | Some d -> check (label ^ ", conditioned") d
              | None -> ());
              match Direct.prune doc expr ~value ~present with
              | Some d -> check (label ^ ", pruned") d
              | None -> ())
            [ true; false ])
        ("absent" :: List.map (fun (a : Imprecise.Answer.t) -> a.value) answers)

let feedback_case seed =
  let rng = Prng.make (2_000_000 + seed) in
  let d, _ = Random_docs.pxml rng ~depth:2 in
  let doc = Pxml.certain [ Pxml.elem "root" [ d ] ] in
  if Pxml.world_count doc <= 2000. then
    posteriors (Printf.sprintf "feedback seed %d" seed) doc queries.(seed mod Array.length queries)

let fig2 () =
  let doc =
    Result.get_ok
      (Imprecise.integrate ~rules:Rulesets.generic ~dtd:Addressbook.dtd Addressbook.source_a
         Addressbook.source_b)
  in
  check "fig2" doc;
  check "fig2, bloated" (bloat (Prng.make 7) doc);
  List.iter (posteriors "fig2" doc) [ "//person/tel"; "//person/nm" ]

let () =
  for seed = 0 to cases - 1 do
    random_case seed;
    fold_case seed;
    feedback_case seed
  done;
  fig2 ();
  if !failures > 0 then begin
    Fmt.epr "%d compaction failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "compaction: %d random seeds + folds + feedback posteriors + Fig. 2; %d documents compacted \
     equal to the pairwise fixpoint reference (%d needed its confirming pass, %d a third)@."
    cases !compared !confirming !third_pass
