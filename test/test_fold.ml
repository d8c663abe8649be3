(* Structural-fold certification.

   `Integrate.integrate_incremental` folds a further source into a
   probabilistic document without enumerating its worlds. Its meaning is
   the enumerate-and-merge fold kept below as [reference]: integrate the
   source with every possible world of the document, mix the results by
   world probability, compact. This harness checks that the two agree —
   the same world distribution to 1e-12, with siblings sorted (the
   structural fold keeps carried-over content in place, so sibling order
   may differ; DTD cardinalities are order-free) — on:

   - random small documents (integrations of two random trees, and random
     probabilistic documents with text and nesting) against random third
     sources;
   - Fig. 2 plus a third address book, under generic and keyed rules;
   - the four three-source folds of the session benchmark's `worlds`
     workload (Fig. 2 and the confusing, typical and Figure 5 n=15 movie
     workloads with a re-reported movie).

   It also asserts that every world of a fold validates against the DTD,
   that [integrate_many] of two sources is ordinary integration, that a
   fold past the old limit of 1000 prior choice combinations succeeds, and
   that [max_possibilities] caps a touched group's enumeration, and that
   folding a source back in ([integrate_many [a; b; a]]) finishes.

   Runs under `dune runtest` and alone via `dune build @fold-stress`; the
   random case count is overridable through FOLD_CASES. *)

module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Worlds = Imprecise.Worlds
module Compact = Imprecise.Compact
module Codec = Imprecise.Codec
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Blocking = Imprecise.Blocking
module Rulesets = Imprecise.Rulesets
module Dtd = Imprecise.Dtd
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads

let cases =
  match Sys.getenv_opt "FOLD_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let failures = ref 0

(* comparisons where both folds succeeded, and where both failed *)
let compared = ref 0

let both_failed = ref 0

let fail label fmt =
  incr failures;
  Fmt.epr "FAIL %s: " label;
  Fmt.epr (fmt ^^ "@.")

(* ---- the reference: integrate with every prior world ------------------------------ *)

exception Reference of Integrate.error

let reference cfg doc source =
  try
    let choices =
      List.concat_map
        (fun (p, forest) ->
          match forest with
          | [ root ] -> (
              match Integrate.integrate cfg root source with
              | Ok merged ->
                  List.map (fun (c : Pxml.choice) -> { c with Pxml.prob = p *. c.Pxml.prob })
                    merged.Pxml.choices
              | Error e -> raise (Reference e))
          | _ -> raise (Reference (Integrate.Root_mismatch ("#forest", Tree.tag source))))
        (Worlds.merged doc)
    in
    Ok (Compact.compact (Pxml.dist choices))
  with Reference e -> Error e

(* ---- distributions with siblings sorted ------------------------------------------- *)

let rec sorted t =
  match t with
  | Tree.Text _ -> t
  | Tree.Element (n, attrs, cs) ->
      Tree.Element (n, attrs, List.sort Tree.compare (List.map sorted cs))

module Key = struct
  type t = Tree.t list

  let compare = List.compare Tree.compare
end

module Dist = Map.Make (Key)

let distribution doc =
  Seq.fold_left
    (fun m (p, forest) ->
      let key = List.map (fun t -> sorted (Tree.canonical t)) forest in
      Dist.update key (fun q -> Some (p +. Option.value ~default:0. q)) m)
    Dist.empty (Worlds.enumerate doc)

let show_world forest = String.concat "" (List.map Imprecise.Xml.Printer.to_string forest)

let same_distribution label a b =
  let da = distribution a and db = distribution b in
  let keys = Dist.union (fun _ p _ -> Some p) da db in
  Dist.iter
    (fun k _ ->
      let p = Option.value ~default:0. (Dist.find_opt k da)
      and q = Option.value ~default:0. (Dist.find_opt k db) in
      if Float.abs (p -. q) > 1e-12 then
        fail label "world %s: structural %.15g, reference %.15g" (show_world k) p q)
    keys

let worlds_valid label dtd doc =
  Seq.iter
    (fun (_, forest) ->
      List.iter
        (fun w ->
          match Dtd.validate dtd w with
          | Ok () -> ()
          | Error _ -> fail label "a world violates the DTD: %s" (show_world [ w ]))
        forest)
    (Worlds.enumerate doc)

(* One comparison; [Some doc] when both folds succeed. *)
let check ?dtd label cfg doc source =
  match Integrate.integrate_incremental cfg doc source, reference cfg doc source with
  | Ok folded, Ok expected ->
      (match Pxml.validate folded with
      | Ok () -> ()
      | Error msg -> fail label "invalid document: %s" msg);
      same_distribution label folded expected;
      Option.iter (fun dtd -> worlds_valid label dtd folded) dtd;
      incr compared;
      Some folded
  | Error _, Error _ ->
      incr both_failed;
      None
  | Ok _, Error e -> fail label "reference failed (%a), fold succeeded" Integrate.pp_error e; None
  | Error e, Ok _ -> fail label "fold failed: %a" Integrate.pp_error e; None

(* ---- random documents ------------------------------------------------------------- *)

let oracle = Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"item" ~field:"name" ]

let random_dtd = Result.get_ok (Dtd.of_string "root: name?\nitem: name?, a?\na: b?")

let reroot t = Tree.element "root" [ t ]

(* Mixed content fails both folds alike; half the cases drop the text of
   elements that also hold elements, so they reach a comparison. *)
let rec unmix t =
  match t with
  | Tree.Text _ -> t
  | Tree.Element (n, attrs, cs) ->
      let cs =
        if List.exists Tree.is_element cs then List.filter Tree.is_element cs else cs
      in
      Tree.Element (n, attrs, List.map unmix cs)

let random_case seed =
  let rng = Prng.make seed in
  let shape, rng = Prng.int rng 2 in
  let factorize, rng = Prng.int rng 2 in
  let mixed, rng = Prng.int rng 2 in
  let prepare t = reroot (if mixed = 0 then unmix t else t) in
  let cfg = Integrate.config ~oracle ~dtd:random_dtd ~factorize:(factorize = 1) () in
  let doc, rng =
    if shape = 0 then
      let a, rng = Random_docs.xml rng ~depth:2 in
      let b, rng = Random_docs.xml rng ~depth:2 in
      (Integrate.integrate cfg (prepare a) (prepare b) |> Result.to_option, rng)
    else
      let d, rng = Random_docs.pxml rng ~depth:2 in
      (Some (Pxml.certain [ Pxml.elem "root" [ d ] ]), rng)
  in
  let c, _ = Random_docs.xml rng ~depth:2 in
  match doc with
  | Some doc when Pxml.world_count doc <= 2000. ->
      ignore (check (Printf.sprintf "random seed %d" seed) cfg doc (prepare c))
  | _ -> ()

(* ---- Fig. 2 and the session benchmark's folds ------------------------------------- *)

let third_book mary_tel =
  Tree.element "addressbook"
    [
      Tree.element "person" [ Tree.leaf "nm" "John"; Tree.leaf "tel" "1111" ];
      Tree.element "person" [ Tree.leaf "nm" "Mary"; Tree.leaf "tel" mary_tel ];
    ]

let fig2_cases () =
  let keyed =
    Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  List.iter
    (fun (label, oracle, blocker) ->
      let cfg = Integrate.config ~oracle ~dtd:Addressbook.dtd ~blocker () in
      let fig2 =
        Result.get_ok (Integrate.integrate cfg Addressbook.source_a Addressbook.source_b)
      in
      List.iter
        (fun tel ->
          ignore (check ~dtd:Addressbook.dtd ("fig2 " ^ label) cfg fig2 (third_book tel)))
        [ "1111"; "2222"; "3333" ])
    [
      ("generic", Rulesets.generic.Rulesets.oracle, Blocking.All_pairs);
      ("keyed", keyed, Blocking.All_pairs);
      ("keyed, key-blocked", keyed, Blocking.key ~field:"nm" ());
    ]

let movie_folds () =
  let rules = Rulesets.full in
  List.iter
    (fun (label, (wl : Workloads.t)) ->
      let cfg =
        Integrate.config ~oracle:rules.Rulesets.oracle ~reconcile:rules.Rulesets.reconcile
          ~dtd:wl.dtd ()
      in
      let doc =
        Result.get_ok (Integrate.integrate cfg (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl))
      in
      List.iteri
        (fun i movie ->
          if i < 6 then
            let third = Workloads.imdb_doc { wl with imdb = [ movie ] } in
            ignore
              (check ~dtd:wl.dtd (Printf.sprintf "%s, third movie %d" label i) cfg doc third))
        wl.imdb)
    [
      ("confusing.full", Workloads.confusing ());
      ("typical.full", Workloads.typical ());
      ("figure5-15.full", Workloads.figure5 ~n_imdb:15);
    ]

(* ---- integrate_many ---------------------------------------------------------------- *)

let two_sources_unchanged () =
  let cfg =
    Integrate.config ~oracle:Rulesets.generic.Rulesets.oracle ~dtd:Addressbook.dtd ()
  in
  let a, b = Addressbook.larger 12 5 in
  let direct = Result.get_ok (Integrate.integrate cfg a b) in
  match Imprecise.integrate_many ~rules:Rulesets.generic ~dtd:Addressbook.dtd [ a; b ] with
  | Ok doc ->
      if Codec.to_string doc <> Codec.to_string direct then
        fail "integrate_many" "two sources differ from ordinary integration"
  | Error e -> fail "integrate_many" "two sources failed: %a" Integrate.pp_error e

(* Keyed books of ten persons whose numbers change from book to book:
   after two books every person's number is a two-way choice, so the prior
   combinations (2^10) are past the 1000 the enumerating fold refused. *)
let past_the_old_limit () =
  let book k =
    Tree.element "addressbook"
      (List.init 10 (fun i ->
           Tree.element "person"
             [ Tree.leaf "nm" (Printf.sprintf "P%d" i); Tree.leaf "tel" (Printf.sprintf "%d-%d" i k) ]))
  in
  let keyed =
    Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  let cfg = Integrate.config ~oracle:keyed ~dtd:Addressbook.dtd () in
  let prior = Result.get_ok (Integrate.integrate cfg (book 0) (book 1)) in
  if Pxml.world_count prior <= 1000. then
    fail "past the old limit" "only %g prior combinations" (Pxml.world_count prior);
  match Integrate.integrate_incremental cfg prior (book 2) with
  | Ok folded ->
      (* every person now has one of three numbers *)
      let answers = Imprecise.rank folded "//person[nm='P3']/tel" in
      if List.length answers <> 3 then
        fail "past the old limit" "P3 has %d numbers, expected 3" (List.length answers)
  | Error e -> fail "past the old limit" "%a" Integrate.pp_error e

(* A touched group's enumeration and its mixture are capped by
   [max_possibilities]: Fig. 2's touched probability node alone expands
   into three combinations. *)
let capped_by_max_possibilities () =
  let fold ?max_possibilities () =
    let cfg =
      Integrate.config ~oracle:Rulesets.generic.Rulesets.oracle ~dtd:Addressbook.dtd
        ?max_possibilities ()
    in
    let fig2 =
      Result.get_ok (Integrate.integrate cfg Addressbook.source_a Addressbook.source_b)
    in
    Integrate.integrate_incremental cfg fig2 (third_book "3333")
  in
  (match fold ~max_possibilities:2 () with
  | Error (Integrate.Too_large 2) -> ()
  | Ok _ -> fail "cap" "the fold passed max_possibilities = 2"
  | Error e -> fail "cap" "expected Too_large 2, got %a" Integrate.pp_error e);
  match fold () with
  | Ok _ -> ()
  | Error e -> fail "cap" "the fold failed under the default cap: %a" Integrate.pp_error e

(* Folding a source back into its own integration with another: the fold
   hands [Compact] a root of hundreds of thousands of choices, many of them
   equal, which a pairwise merge never finished. *)
let source_again () =
  List.iter
    (fun (n, m) ->
      let label = Printf.sprintf "[a; b; a] on larger %d %d" n m in
      let a, b = Addressbook.larger n m in
      match Imprecise.integrate_many ~rules:Rulesets.generic ~dtd:Addressbook.dtd [ a; b; a ] with
      | Error e -> fail label "%a" Integrate.pp_error e
      | Ok doc -> (
          (match Pxml.validate doc with Ok () -> () | Error msg -> fail label "invalid: %s" msg);
          if not (Pxml.equal (Compact.compact doc) doc) then
            fail label "a second compaction changes the document"))
    [ (5, 4); (7, 6); (10, 8) ]

let () =
  for seed = 0 to cases - 1 do
    random_case seed
  done;
  fig2_cases ();
  movie_folds ();
  two_sources_unchanged ();
  past_the_old_limit ();
  capped_by_max_possibilities ();
  source_again ();
  if !failures > 0 then begin
    Fmt.epr "%d structural-fold failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "structural fold: %d random cases + Fig. 2 + 18 movie folds, %d compared equal to the \
     reference (%d failed alike); two-source integrate_many unchanged; a fold past 1000 \
     combinations succeeds; [a; b; a] folds on three address-book sizes@."
    cases !compared !both_failed
