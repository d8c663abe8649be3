(* Parallel-engine equivalence harness.

   The contract of `Integrate.config ~jobs` is exact: any jobs value must
   produce a result bit-identical to the sequential run, with identical
   per-run tallies (pairs_compared, pairs_blocked, same, unsure). This
   harness checks that contract three ways:

   - fuzzed document pairs (seeded, reproducible) integrated with jobs 1,
     2 and 4, comparing the pxml encodings byte for byte and the trace
     records field by field;
   - a larger address-book pair with blocking, whose candidate grids are
     big enough to actually cross the parallel threshold and fan out;
   - the decision cache riding along: a cached run must answer the same
     as an uncached one, and a repeat run on the same cache must be
     served mostly from memory (hits observed, oracle decisions flat);
   - the structural fold of a third book into an integrated pair, whose
     one grid per element is scored by the same banded engine.

   Runs under `dune runtest` and alone via `dune build @par-stress`; case
   count overridable through PAR_FUZZ_CASES. *)

module Tree = Imprecise.Tree
module Codec = Imprecise.Codec
module Oracle = Imprecise.Oracle
module Decision_cache = Imprecise.Decision_cache
module Integrate = Imprecise.Integrate
module Blocking = Imprecise.Blocking
module Matching = Imprecise.Matching
module Obs = Imprecise.Obs
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Addressbook = Imprecise.Data.Addressbook

let cases =
  match Sys.getenv_opt "PAR_FUZZ_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 150)
  | None -> 150

let failures = ref 0

let fail seed fmt =
  incr failures;
  Fmt.epr "FAIL (reproduce: seed %d)@.  " seed;
  Fmt.epr (fmt ^^ "@.")

let oracle =
  Oracle.make [ Oracle.deep_equal_rule; Oracle.key_rule ~tag:"person" ~field:"nm" ]

let encode doc = Codec.to_string ~indent:2 doc

let same_trace seed label (a : Integrate.trace) (b : Integrate.trace) =
  let field name va vb =
    if va <> vb then fail seed "%s: %s differs (jobs=1: %d, parallel: %d)" label name va vb
  in
  field "pairs_generated" a.Integrate.pairs_generated b.Integrate.pairs_generated;
  field "pairs_compared" a.Integrate.pairs_compared b.Integrate.pairs_compared;
  field "pairs_blocked" a.Integrate.pairs_blocked b.Integrate.pairs_blocked;
  field "same_pairs" a.Integrate.same_pairs b.Integrate.same_pairs;
  field "unsure_pairs" a.Integrate.unsure_pairs b.Integrate.unsure_pairs;
  field "cluster_count" a.Integrate.cluster_count b.Integrate.cluster_count

let config ?decisions ~jobs () =
  Integrate.config ~oracle ~dtd:Addressbook.dtd ~blocker:(Blocking.key ~field:"nm" ())
    ~factorize:true ~jobs ?decisions ()

(* One fuzz case: same pair, three jobs values, byte-identical results and
   identical tallies. Roots are forced to a common tag so integration does
   not trivially stop at a root mismatch. *)
let check_fuzz_case seed =
  let rng = Prng.make seed in
  let a, rng = Random_docs.xml rng ~depth:2 in
  let b, _ = Random_docs.xml rng ~depth:2 in
  let reroot t = Tree.element "root" [ t ] in
  let a = reroot a and b = reroot b in
  match Integrate.integrate_traced (config ~jobs:1 ()) a b with
  | Error _ ->
      (* jobs must not change which inputs are rejected either *)
      List.iter
        (fun jobs ->
          match Integrate.integrate_traced (config ~jobs ()) a b with
          | Error _ -> ()
          | Ok _ -> fail seed "jobs=%d succeeded where jobs=1 failed" jobs)
        [ 2; 4 ]
  | Ok (doc1, trace1) ->
      let ref_bytes = encode doc1 in
      List.iter
        (fun jobs ->
          match Integrate.integrate_traced (config ~jobs ()) a b with
          | Error e -> fail seed "jobs=%d failed where jobs=1 succeeded: %a" jobs Integrate.pp_error e
          | Ok (doc, trace) ->
              if encode doc <> ref_bytes then
                fail seed "jobs=%d result is not bit-identical to jobs=1" jobs;
              same_trace seed (Printf.sprintf "jobs=%d" jobs) trace1 trace)
        [ 2; 4 ]

(* Large grids: [Addressbook.larger] yields person pools whose candidate
   grid crosses the parallel threshold, so jobs>1 genuinely fans out
   (verified via the integrate.parallel_runs counter). *)
let check_large_case n seed =
  let a, b = Addressbook.larger n (1000 + seed) in
  let run jobs =
    match Integrate.integrate_traced (config ~jobs ()) a b with
    | Ok r -> r
    | Error e -> (fail seed "larger(%d) jobs=%d failed: %a" n jobs Integrate.pp_error e; exit 1)
  in
  let doc1, trace1 = run 1 in
  let ref_bytes = encode doc1 in
  List.iter
    (fun jobs ->
      let doc, trace = run jobs in
      if encode doc <> ref_bytes then
        fail seed "larger(%d): jobs=%d not bit-identical" n jobs;
      same_trace seed (Printf.sprintf "larger(%d) jobs=%d" n jobs) trace1 trace)
    [ 2; 4; 8 ]

(* Folds: a third book into an integrated pair, with jobs 1, 2 and 4. The
   root's grid holds every local world of every person against the third
   book's persons, so it crosses the parallel threshold. *)
let check_fold_case n seed =
  let a, b = Addressbook.larger n (3000 + seed) in
  let third, _ = Addressbook.larger n (4000 + seed) in
  let doc =
    match Integrate.integrate (config ~jobs:1 ()) a b with
    | Ok doc -> doc
    | Error e -> (fail seed "fold setup (%d) failed: %a" n Integrate.pp_error e; exit 1)
  in
  let fold jobs =
    match Integrate.integrate_incremental (config ~jobs ()) doc third with
    | Ok folded -> encode folded
    | Error e -> (fail seed "fold(%d) jobs=%d failed: %a" n jobs Integrate.pp_error e; exit 1)
  in
  let sequential = fold 1 in
  List.iter
    (fun jobs ->
      if fold jobs <> sequential then fail seed "fold(%d): jobs=%d not bit-identical" n jobs)
    [ 2; 4 ]

let count name = Obs.Metrics.count (Obs.Metrics.counter name)

(* Regression: a band worker failing used to be visible only if it was
   band 0 — a later band's exception escaped before the workers were
   joined (leaking domains), and when several bands failed, which failure
   surfaced was racy. Matching.graph must join every worker and
   re-raise the first failure in band order, deterministically. *)
exception Band_boom of int

let check_band_exception_propagation () =
  (* 8x8 = 64 cells: exactly par_grid_min, so jobs=4 really fans out into
     four 2-row bands. Bands 1 (rows 2-3) and 3 (rows 6-7) both raise at
     their first cell; bands 0 and 2 run to completion. *)
  let cells = Atomic.make 0 in
  let verdict i j =
    Atomic.incr cells;
    if (i = 2 || i = 6) && j = 0 then raise (Band_boom (i / 2));
    if i = j then Oracle.Unsure 0.5 else Oracle.Different
  in
  (match Matching.graph ~jobs:4 ~n_left:8 ~n_right:8 verdict with
  | _ -> fail 0 "two bands raised, yet the grid reported success"
  | exception Band_boom 1 -> ()
  | exception Band_boom b -> fail 0 "band %d's failure surfaced before band 1's" b);
  (* all four bands were joined: the two clean bands finished their 16
     cells each, the two raising bands stopped at their first cell *)
  let seen = Atomic.get cells in
  if seen <> 34 then fail 0 "expected 16+1+16+1 = 34 cells visited, saw %d" seen

let check_decision_cache () =
  let a, b = Addressbook.larger 40 7 in
  let plain =
    match Integrate.integrate (config ~jobs:1 ()) a b with
    | Ok doc -> encode doc
    | Error e -> (fail 7 "uncached run failed: %a" Integrate.pp_error e; exit 1)
  in
  let decisions = Decision_cache.create () in
  let cached jobs =
    match Integrate.integrate (config ~decisions ~jobs ()) a b with
    | Ok doc -> encode doc
    | Error e -> (fail 7 "cached run failed: %a" Integrate.pp_error e; exit 1)
  in
  let first = cached 1 in
  if first <> plain then fail 7 "decision cache changed the result";
  (* the repeat run meets only already-decided pairs: hits must grow and
     the Oracle must not be consulted again *)
  let hits0 = count "oracle.cache.hit" and decided0 = count "oracle.decisions" in
  let second = cached 4 in
  if second <> plain then fail 7 "cached parallel repeat changed the result";
  if count "oracle.cache.hit" <= hits0 then fail 7 "repeat run produced no cache hits";
  if count "oracle.decisions" <> decided0 then
    fail 7 "repeat run still consulted the Oracle (%d fresh decisions)"
      (count "oracle.decisions" - decided0)

let () =
  for seed = 0 to cases - 1 do
    check_fuzz_case seed
  done;
  let par0 = count "integrate.parallel_runs" in
  List.iter (fun (n, seed) -> check_large_case n seed) [ (24, 1); (40, 2) ];
  if count "integrate.parallel_runs" <= par0 then begin
    incr failures;
    Fmt.epr "FAIL: large cases never took the parallel path@."
  end;
  let par0 = count "integrate.parallel_runs" in
  List.iter (fun (n, seed) -> check_fold_case n seed) [ (24, 1); (40, 2) ];
  if count "integrate.parallel_runs" <= par0 then begin
    incr failures;
    Fmt.epr "FAIL: folds never took the parallel path@."
  end;
  check_decision_cache ();
  check_band_exception_propagation ();
  if !failures > 0 then begin
    Fmt.epr "%d parallel-equivalence failure(s) over %d fuzz cases@." !failures cases;
    exit 1
  end;
  Fmt.pr
    "parallel engine: %d fuzz cases + large grids + folds + decision cache + \
     band-failure propagation, all identical@."
    cases
