(* Recall-safety differential harness for the pluggable blocking stage.

   The contract of `Integrate.config ~blocker` is exact: a recall-safe
   blocker may skip candidate pairs, but only pairs the full grid's Oracle
   would have called Different — so the final clusters, verdict tallies and
   merged PXML must be byte-identical to the All_pairs baseline. This
   harness checks that contract three ways, mirroring test_par.ml:

   - fuzzed address-book pairs (seeded, reproducible; names collide, vary
     in case/whitespace, and are sometimes missing) checked for
     *completeness* — every pair the Oracle marks Same or Unsure survives
     each blocker's plan — and then integrated under every blocker and
     jobs 1/4, comparing pxml encodings byte for byte and traces field by
     field against All_pairs;
   - the paper examples: Figure 2 and the §VI 'typical conditions'
     workload, completeness-checked at the top-level candidate pool with
     their own rule sets;
   - a larger address-book pair whose grid crosses the parallel threshold,
     where the key blocker must also demonstrate a real reduction
     (compared <= generated / 4).

   Runs under `dune runtest` and alone via `dune build @block-stress`;
   case count overridable through BLOCK_FUZZ_CASES. *)

module Tree = Imprecise.Tree
module Codec = Imprecise.Codec
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Blocking = Imprecise.Blocking
module Prng = Imprecise.Data.Prng
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads
module Rulesets = Imprecise.Rulesets

let cases =
  match Sys.getenv_opt "BLOCK_FUZZ_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

let failures = ref 0

let fail seed fmt =
  incr failures;
  Fmt.epr "FAIL (reproduce: seed %d)@.  " seed;
  Fmt.epr (fmt ^^ "@.")

let oracle =
  Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ]

let encode doc = Codec.to_string ~indent:2 doc

(* The presets under certification, as the CLI ships them. All key on the
   nm field; elements without one (missing nm, non-person children) must
   pair with everything. *)
let blockers =
  [
    ("key", Blocking.key ~field:"nm" ());
    ("qgram", Blocking.qgram ~field:"nm" ~q:2 ~threshold:0.4 ());
    ("snm", Blocking.sorted_neighbourhood ~field:"nm" ~window:2 ());
  ]

(* ---- fuzz generator ----------------------------------------------------------- *)

(* Random address books built for blocking: a small name pool with likely
   collisions, case/whitespace variants of the same name (raw-unequal but
   normalising to the same key), persons with no name at all, and the odd
   non-person child. *)
let names =
  [|
    "Alice"; "alice "; "Bob"; "bob"; "Carol"; "Dave Smith"; "dave  smith";
    "Eve"; "Mallory"; "Trent"; "N.N.";
  |]

let person rng =
  let which, rng = Prng.int rng 8 in
  let name, rng =
    if which = 0 then (None, rng)
    else
      let i, rng = Prng.int rng (Array.length names) in
      (Some names.(i), rng)
  in
  let tel, rng = Prng.int rng 5 in
  let children =
    (match name with None -> [] | Some n -> [ Tree.leaf "nm" n ])
    @ [ Tree.leaf "tel" (string_of_int (1000 + tel)) ]
  in
  (Tree.element "person" children, rng)

let book rng =
  let n, rng = Prng.int rng 9 in
  let children, rng =
    List.fold_left
      (fun (acc, rng) _ ->
        let noise, rng = Prng.int rng 10 in
        if noise = 0 then (acc @ [ Tree.leaf "note" "x" ], rng)
        else
          let p, rng = person rng in
          (acc @ [ p ], rng))
      ([], rng)
      (List.init (n + 1) (fun i -> i))
  in
  (Tree.element "addressbook" children, rng)

(* ---- the completeness property ------------------------------------------------ *)

(* Every pair the full grid's Oracle marks Same or Unsure must survive the
   blocker's plan. (Pairs of differently-named tags never reach the Oracle
   in the engine, so only same-tag exclusions are charged to the blocker.) *)
let check_completeness seed label ~oracle spec left right =
  match Blocking.candidates (Blocking.plan spec ~left ~right) with
  | None -> ()
  | Some row ->
      Array.iteri
        (fun i x ->
          let kept = row i in
          Array.iteri
            (fun j y ->
              if (not (List.mem j kept)) && Tree.name x = Tree.name y then
                match Oracle.decide oracle x y with
                | Oracle.Different -> ()
                | v ->
                    fail seed "%s blocked pair (%d, %d) the Oracle marks %a" label i j
                      Oracle.pp_verdict v
                | exception Oracle.Conflict _ -> ())
            right)
        left

let elements t = Array.of_list (List.filter Tree.is_element (Tree.children t))

(* ---- differential integration ------------------------------------------------- *)

let config ?(jobs = 1) blocker =
  Integrate.config ~oracle ~dtd:Addressbook.dtd ~factorize:true ~jobs ~blocker ()

let same_outcome seed label (a : Integrate.trace) (b : Integrate.trace) =
  let field name va vb =
    if va <> vb then fail seed "%s: %s differs (all: %d, blocked: %d)" label name va vb
  in
  field "pairs_generated" a.Integrate.pairs_generated b.Integrate.pairs_generated;
  field "same_pairs" a.Integrate.same_pairs b.Integrate.same_pairs;
  field "unsure_pairs" a.Integrate.unsure_pairs b.Integrate.unsure_pairs;
  field "cluster_count" a.Integrate.cluster_count b.Integrate.cluster_count;
  if b.Integrate.pairs_compared > a.Integrate.pairs_compared then
    fail seed "%s: blocker compared more pairs (%d) than the full grid (%d)" label
      b.Integrate.pairs_compared a.Integrate.pairs_compared;
  (* every generated pair was either compared or blocked, never both *)
  if b.Integrate.pairs_generated <> b.Integrate.pairs_compared + b.Integrate.pairs_blocked
  then
    fail seed "%s: generated %d <> compared %d + blocked %d" label
      b.Integrate.pairs_generated b.Integrate.pairs_compared b.Integrate.pairs_blocked

let check_fuzz_case seed =
  let rng = Prng.make seed in
  let a, rng = book rng in
  let b, _ = book rng in
  (* the property itself, at the top-level candidate pool *)
  List.iter
    (fun (label, spec) ->
      check_completeness seed label ~oracle spec (elements a) (elements b))
    blockers;
  (* and its consequence: bit-identical integration under every blocker *)
  match Integrate.integrate_traced (config Blocking.All_pairs) a b with
  | Error _ ->
      List.iter
        (fun (label, spec) ->
          match Integrate.integrate_traced (config spec) a b with
          | Error _ -> ()
          | Ok _ -> fail seed "%s succeeded where All_pairs failed" label)
        blockers
  | Ok (doc_all, trace_all) ->
      let ref_bytes = encode doc_all in
      List.iter
        (fun (label, spec) ->
          List.iter
            (fun jobs ->
              match Integrate.integrate_traced (config ~jobs spec) a b with
              | Error e ->
                  fail seed "%s (jobs=%d) failed where All_pairs succeeded: %a" label
                    jobs Integrate.pp_error e
              | Ok (doc, trace) ->
                  if encode doc <> ref_bytes then
                    fail seed "%s (jobs=%d) result is not byte-identical to All_pairs"
                      label jobs;
                  same_outcome seed (Printf.sprintf "%s (jobs=%d)" label jobs) trace_all
                    trace)
            [ 1; 4 ])
        blockers

(* ---- the paper examples -------------------------------------------------------- *)

let check_paper_examples () =
  (* Figure 2 under the fig2 rule set (deep-equal only): nothing may be
     blocked away from the Same/Unsure set *)
  let fig2_oracle = Oracle.make [ Oracle.deep_equal_rule ] in
  let la = elements Addressbook.source_a and lb = elements Addressbook.source_b in
  List.iter
    (fun (label, spec) ->
      check_completeness (-1) ("fig2 " ^ label) ~oracle:fig2_oracle spec la lb)
    blockers;
  (* §VI typical conditions under the full rule set, with the blockers the
     documentation recommends for movie collections *)
  let wl = Workloads.typical () in
  let ml = elements (Workloads.mpeg7_doc wl) and il = elements (Workloads.imdb_doc wl) in
  List.iter
    (fun (label, spec) ->
      check_completeness (-2) ("typical " ^ label) ~oracle:Rulesets.full.oracle spec ml il)
    [
      ("key(year)", Blocking.key ~field:"year" ());
      ("qgram(title)", Blocking.qgram ~field:"title" ~threshold:0.25 ());
      ("snm(title)", Blocking.sorted_neighbourhood ~field:"title" ());
    ]

(* ---- scale: real reduction, still bit-identical -------------------------------- *)

let check_large_case () =
  let a, b = Addressbook.larger 200 41 in
  match Integrate.integrate_traced (config Blocking.All_pairs) a b with
  | Error e -> fail 41 "larger(200) All_pairs failed: %a" Integrate.pp_error e
  | Ok (doc_all, trace_all) ->
      let ref_bytes = encode doc_all in
      List.iter
        (fun (label, spec) ->
          match Integrate.integrate_traced (config ~jobs:4 spec) a b with
          | Error e -> fail 41 "larger(200) %s failed: %a" label Integrate.pp_error e
          | Ok (doc, trace) ->
              if encode doc <> ref_bytes then
                fail 41 "larger(200) %s: not byte-identical under jobs=4" label;
              same_outcome 41 ("larger(200) " ^ label) trace_all trace;
              if trace.Integrate.pairs_blocked = 0 then
                fail 41 "larger(200) %s blocked nothing" label)
        blockers;
      (* the key blocker on unique-ish names must prune hard: this is the
         reduction the integrate_blocking bench experiment measures *)
      (match Integrate.integrate_traced (config (Blocking.key ~field:"nm" ())) a b with
      | Error e -> fail 41 "larger(200) key rerun failed: %a" Integrate.pp_error e
      | Ok (_, trace) ->
          if trace.Integrate.pairs_compared * 4 > trace.Integrate.pairs_generated then
            fail 41 "key blocker reduced %d generated pairs only to %d compared"
              trace.Integrate.pairs_generated trace.Integrate.pairs_compared);
      ignore trace_all

let () =
  for seed = 0 to cases - 1 do
    check_fuzz_case seed
  done;
  check_paper_examples ();
  check_large_case ();
  if !failures > 0 then begin
    Fmt.epr "%d recall-safety failure(s) over %d fuzz cases@." !failures cases;
    exit 1
  end;
  Fmt.pr
    "blocking: %d fuzz cases x %d blockers complete and bit-identical, paper examples \
     pinned, 4x reduction at n=200@."
    cases (List.length blockers)
