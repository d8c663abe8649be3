(* Reproduction harness for every table and figure in the paper, plus
   Bechamel performance benchmarks.

     dune exec bench/main.exe            runs everything
     dune exec bench/main.exe -- table1  runs one experiment
       (table1 | figure5 | typical | addressbook | queries | quality |
        feedback | ablation | perf)

   Absolute counts are not expected to match the paper (the sources are
   synthetic stand-ins for IMDB/MPEG-7; see DESIGN.md); the shape is: which
   rule wins, by how many orders of magnitude, and where the residual
   uncertainty lands. EXPERIMENTS.md records paper-vs-measured. *)

open Imprecise

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let human n =
  if n >= 1e9 then Printf.sprintf "%.2fG" (n /. 1e9)
  else if n >= 1e6 then Printf.sprintf "%.2fM" (n /. 1e6)
  else if n >= 1e3 then Printf.sprintf "%.1fk" (n /. 1e3)
  else Printf.sprintf "%.0f" n

(* Every experiment runs under [run_experiment] below, which records its
   name here — so a failure anywhere in the harness names the experiment it
   happened in, not just the operation that failed. *)
let in_experiment = ref "(harness)"

(* [time f] is [f ()] and the seconds it took on [Obs.Clock]. *)
let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

let or_fail what pp = function
  | Ok v -> v
  | Error e -> Fmt.failwith "[%s] %s failed: %a" !in_experiment what pp e

let stats_or_fail ~rules ?factorize ~dtd a b =
  or_fail "integration stats" Integrate.pp_error
    (integration_stats ~rules ?factorize ~dtd a b)

let integrate_or_fail ~rules ~dtd a b =
  or_fail "integration" Integrate.pp_error (integrate ~rules ~dtd a b)

(* ---- Table I -------------------------------------------------------------- *)

(* Paper, Table I: effective rules vs #nodes (reported in units of 100). *)
let table1_paper =
  [
    ("none", 1395800.); ("genre", 601500.); ("title", 24300.);
    ("genre+title", 15400.); ("genre+title+year", 2900.);
  ]

let table1 () =
  section "Table I - effect of rules on uncertainty (confusing 6 vs 6)";
  let wl = Data.Workloads.confusing () in
  let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
  Printf.printf "%-20s %12s %12s %14s %10s %8s\n" "rules" "paper-nodes" "nodes" "worlds"
    "unsure" "factor";
  let prev = ref None in
  List.iter2
    (fun (rs : Rulesets.t) (_, paper) ->
      let s = stats_or_fail ~rules:rs ~dtd:wl.dtd a b in
      let factor =
        match !prev with
        | None -> ""
        | Some p -> Printf.sprintf "%.1fx" (p /. s.Integrate.nodes)
      in
      prev := Some s.Integrate.nodes;
      Printf.printf "%-20s %12s %12s %14s %10d %8s\n" rs.name (human paper)
        (human s.Integrate.nodes) (human s.Integrate.worlds)
        s.Integrate.trace.Integrate.unsure_pairs factor)
    Rulesets.table1 table1_paper;
  Printf.printf
    "shape check: each added rule reduces #nodes; title >> genre; year strongest.\n"

(* ---- Figure 5 ------------------------------------------------------------- *)

let figure5 () =
  section "Figure 5 - influence of rules on scalability (6 MPEG-7 vs n IMDB)";
  let title_only = Rulesets.movie ~title:true () in
  let genre_title = Rulesets.movie ~genre:true ~title:true () in
  let title_year = Rulesets.movie ~title:true ~year:true () in
  Printf.printf "%-6s %16s %16s %16s\n" "n" "title-only" "genre+title" "title+year";
  List.iter
    (fun n ->
      let wl = Data.Workloads.figure5 ~n_imdb:n in
      let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
      let s1 = stats_or_fail ~rules:title_only ~dtd:wl.dtd a b in
      let s2 = stats_or_fail ~rules:genre_title ~dtd:wl.dtd a b in
      let s3 = stats_or_fail ~rules:title_year ~dtd:wl.dtd a b in
      Printf.printf "%-6d %16s %16s %16s\n" n (human s1.Integrate.nodes)
        (human s2.Integrate.nodes) (human s3.Integrate.nodes))
    [ 0; 5; 10; 15; 20; 25; 30; 35; 40; 45; 50; 55; 60 ];
  Printf.printf
    "shape check (paper, log axis 1e3..1e9): title-only grows by orders of\n\
     magnitude; the stronger rule sets stay orders of magnitude below it.\n\
     (The paper's in-text 6-vs-60 'about 1.5 million nodes with effective\n\
     rules' sits between these columns, as it does here on a log axis.)\n"

(* ---- typical conditions ----------------------------------------------------- *)

let typical () =
  section "Section V in-text - typical conditions (6 movies of 1995 vs 60)";
  let wl = Data.Workloads.typical () in
  let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
  let s = stats_or_fail ~rules:Rulesets.full ~dtd:wl.dtd a b in
  Printf.printf "paper   : ~3500 nodes, 4 possible worlds, 2 undecided pairs\n";
  Printf.printf "measured: %s nodes, %.0f possible worlds, %d undecided pairs\n"
    (human s.Integrate.nodes) s.Integrate.worlds
    s.Integrate.trace.Integrate.unsure_pairs

(* ---- Figure 2 worked example ------------------------------------------------- *)

let addressbook () =
  section "Figure 2 - two address books, DTD 'person: nm?, tel?'";
  let rules = Rulesets.generic in
  let doc =
    integrate_or_fail ~rules ~dtd:Data.Addressbook.dtd Data.Addressbook.source_a
      Data.Addressbook.source_b
  in
  Printf.printf "paper   : 3 possible worlds (two Johns; John/1111; John/2222)\n";
  Printf.printf "measured: %d distinct worlds, %d representation nodes\n"
    (Worlds.distinct_count doc) (node_count doc);
  List.iter
    (fun (p, forest) ->
      Printf.printf "  %.2f  %s\n" p
        (String.concat "" (List.map (fun t -> Xml.Printer.to_string t) forest)))
    (Worlds.merged doc)

(* ---- Section VI queries --------------------------------------------------------- *)

let query_document () =
  let wl = Data.Workloads.confusing () in
  let rules = Rulesets.movie ~genre:true ~title:true ~director:true () in
  let cfg =
    Integrate.config ~oracle:rules.Rulesets.oracle ~reconcile:rules.Rulesets.reconcile
      ~dtd:wl.dtd ()
  in
  or_fail "query document" Integrate.pp_error
    (Integrate.integrate cfg (Data.Workloads.mpeg7_doc wl) (Data.Workloads.imdb_doc wl))

let print_answers answers =
  List.iter
    (fun (a : Answer.t) ->
      Printf.printf "  %3.0f%%  %s\n" (100. *. a.Answer.prob) a.Answer.value)
    answers

let q1 = {|//movie[.//genre="Horror"]/title|}

let q2 = {|//movie[some $d in .//director satisfies contains($d,"John")]/title|}

let queries () =
  section "Section VI - probabilistic querying under confusing conditions";
  let doc = query_document () in
  Printf.printf "integrated document: %d nodes, %s possible worlds\n" (node_count doc)
    (human (world_count doc));
  Printf.printf "paper's document: 33856 possible worlds\n";
  Printf.printf "\nQ1  %s\n" q1;
  Printf.printf "paper   :  97%% Jaws; 97%% Jaws 2 (and nothing else)\n";
  Printf.printf "measured:\n";
  print_answers (rank doc q1);
  Printf.printf "\nQ2  %s\n" q2;
  Printf.printf
    "paper   : 100%% Die Hard: With a Vengeance; 96%% Mission: Impossible II;\n\
    \          21%% Mission: Impossible (the 'II typo' artefact)\n";
  Printf.printf "measured:\n";
  print_answers (rank doc q2)

(* ---- extension: answer quality -------------------------------------------------- *)

let quality () =
  section "Extension - answer quality vs rule set (announced in Sections V/VII)";
  let wl = Data.Workloads.confusing () in
  let truth = Data.Workloads.titles_with_genre wl "Horror" in
  Printf.printf "query: %s   ground truth: %s\n" q1 (String.concat ", " truth);
  Printf.printf "%-28s %10s %10s %10s %10s\n" "rules" "precision" "recall" "F" "entropy";
  List.iter
    (fun (rs : Rulesets.t) ->
      let cfg =
        Integrate.config ~oracle:rs.Rulesets.oracle ~reconcile:rs.Rulesets.reconcile
          ~dtd:wl.dtd ()
      in
      match
        Integrate.integrate cfg (Data.Workloads.mpeg7_doc wl)
          (Data.Workloads.imdb_doc wl)
      with
      | Error e ->
          Printf.printf "%-28s (skipped: %s)\n" rs.name
            (Fmt.str "%a" Integrate.pp_error e)
      | Ok doc ->
          let answers = rank doc q1 in
          let p = Quality.probabilistic_precision answers ~truth in
          let r = Quality.probabilistic_recall answers ~truth in
          let f = Quality.f_measure answers ~truth in
          let entropy =
            if world_count doc <= 200_000. then
              Printf.sprintf "%.1f b" (Quality.world_entropy doc)
            else "-"
          in
          Printf.printf "%-28s %10.3f %10.3f %10.3f %10s\n" rs.name p r f entropy)
    [
      Rulesets.movie ~genre:true ~title:true ();
      Rulesets.movie ~genre:true ~title:true ~director:true ();
      Rulesets.movie ~genre:true ~title:true ~year:true ~director:true ();
    ];
  Printf.printf
    "note: the paper warns that over-pruning can remove valid possibilities;\n\
     precision rises with stronger rules while recall stays high here because\n\
     the rules are sound for this workload.\n"

(* ---- extension: user feedback ----------------------------------------------------- *)

let feedback () =
  section "Extension - the feedback loop (ref [4]; unimplemented in the paper)";
  (* Feedback that is decidable at a single probability node prunes the
     database in place (the paper's "remove data related to impossible
     worlds"); correlated evidence falls back to exact conditioning. *)
  let wl = Data.Workloads.typical () in
  let doc =
    integrate_or_fail ~rules:Rulesets.full ~dtd:wl.dtd (Data.Workloads.mpeg7_doc wl)
      (Data.Workloads.imdb_doc wl)
  in
  let report label doc =
    Printf.printf "%-58s %6d nodes %4s worlds  certainty %.2f\n" label (node_count doc)
      (human (world_count doc))
      (Feedback.certainty ~limit:2e5 doc)
  in
  report "initial integration (typical 6 vs 60)" doc;
  let steps =
    [
      ( "user confirms the two Twelve Monkeys entries are one movie",
        "count(//movie[title='Twelve Monkeys'])", "1", true );
      ( "user confirms the two GoldenEye entries are one movie",
        "count(//movie[title='GoldenEye'])", "1", true );
    ]
  in
  let final =
    List.fold_left
      (fun doc (label, query, value, correct) ->
        match Feedback.prune doc ~query ~value ~correct with
        | Ok doc' ->
            report label doc';
            doc'
        | Error e ->
            Printf.printf "%-58s (no-op: %s)\n" label (Fmt.str "%a" Feedback.pp_error e);
            doc)
      doc steps
  in
  Printf.printf
    "feedback removed the data of impossible worlds: %d -> %d nodes, certain: %b\n"
    (node_count doc) (node_count final)
    (Pxml.is_certain final)

(* ---- ablations --------------------------------------------------------------------- *)

let ablation () =
  section "Ablation - design choices (this repo's additions)";
  let wl = Data.Workloads.confusing () in
  let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
  Printf.printf "A. cluster factorisation (independent choices stored locally)\n";
  Printf.printf "%-20s %14s %14s %10s\n" "rules" "flat-nodes" "factor-nodes" "saving";
  List.iter
    (fun (rs : Rulesets.t) ->
      let flat = stats_or_fail ~rules:rs ~dtd:wl.dtd a b in
      let fact = stats_or_fail ~rules:rs ~factorize:true ~dtd:wl.dtd a b in
      Printf.printf "%-20s %14s %14s %9.1fx\n" rs.name (human flat.Integrate.nodes)
        (human fact.Integrate.nodes)
        (flat.Integrate.nodes /. fact.Integrate.nodes))
    Rulesets.table1;
  Printf.printf "\nB. compaction of the query document\n";
  let doc = query_document () in
  let compacted = Compact.compact doc in
  Printf.printf "before %d nodes, after %d nodes (%.1f%% saved)\n" (node_count doc)
    (node_count compacted)
    (100.
    *. (1. -. (float_of_int (node_count compacted) /. float_of_int (node_count doc))));
  Printf.printf "\nC. direct probabilistic evaluation vs world enumeration (Q1)\n";
  let direct, td = time (fun () -> rank ~strategy:Pquery.Direct_only doc q1) in
  let naive, tn =
    time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q1)
  in
  Printf.printf "direct   : %.3fs (%d answers)\n" td (List.length direct);
  Printf.printf "enumerate: %.3fs (%d answers)\n" tn (List.length naive);
  Printf.printf "agree    : %b\n" (Answer.equal ~tolerance:1e-6 direct naive)

(* ---- extension: lossy reduction vs answer quality -------------------------------- *)

let reduction () =
  section "Extension - 'reduction should not be pushed too far' (Section V)";
  (* The dangerous case for lossy reduction: the less-trusted source is the
     one that is right. The integrator weighs MPEG-7 values at 0.7, but
     ground truth says John's number is the IMDB one (2222). Pruning
     low-probability possibilities deletes the true value. *)
  let oracle =
    (* the Oracle leans towards the match (0.6) and towards MPEG-7's value
       (0.75) - and is wrong about the latter *)
    Imprecise.Oracle.make
      ~default:(Imprecise.Oracle.constant_prob 0.6)
      [ Imprecise.Oracle.deep_equal_rule ]
  in
  let cfg =
    Integrate.config ~oracle ~dtd:Data.Addressbook.dtd
      ~value_conflict:(fun _ _ -> 0.75) ()
  in
  let doc =
    or_fail "reduction setup" Integrate.pp_error
      (Integrate.integrate cfg Data.Addressbook.source_a Data.Addressbook.source_b)
  in
  let truth = [ "2222" ] in
  Printf.printf "query: //person/tel   ground truth: John's number is 2222\n";
  Printf.printf "%-10s %8s %8s %12s %18s\n" "threshold" "nodes" "worlds" "P(2222)" "recall(truth)";
  List.iter
    (fun threshold ->
      let pruned = if threshold <= 0. then doc else Compact.prune_unlikely ~threshold doc in
      let answers = rank pruned "//person/tel" in
      let p =
        match List.find_opt (fun (a : Answer.t) -> a.Answer.value = "2222") answers with
        | Some a -> a.Answer.prob
        | None -> 0.
      in
      Printf.printf "%-10.2f %8d %8.0f %12.3f %18.3f\n" threshold (node_count pruned)
        (world_count pruned) p
        (Quality.probabilistic_recall answers ~truth))
    [ 0.; 0.2; 0.3; 0.5 ];
  Printf.printf
    "moderate pruning is harmless; past the true value's probability the valid\n\
     possibility is eliminated and recall collapses - the paper's warning.\n"

(* ---- extension: sampling accuracy ---------------------------------------------------- *)

let sampling () =
  section "Extension - Monte-Carlo query answering (approximate, any scale)";
  let doc = query_document () in
  let exact = rank ~strategy:Pquery.Direct_only doc q2 in
  let prob answers v =
    match List.find_opt (fun (a : Answer.t) -> a.Answer.value = v) answers with
    | Some a -> a.Answer.prob
    | None -> 0.
  in
  Printf.printf "query: %s\n" q2;
  Printf.printf "%-10s %22s\n" "samples" "max |error| vs exact";
  List.iter
    (fun n ->
      let approx = rank ~strategy:(Pquery.Sample { n; seed = 42 }) doc q2 in
      let err =
        List.fold_left
          (fun acc (a : Answer.t) ->
            Float.max acc (Float.abs (a.Answer.prob -. prob approx a.Answer.value)))
          0. exact
      in
      Printf.printf "%-10d %22.4f\n" n err)
    [ 100; 1_000; 10_000 ];
  Printf.printf "error shrinks as O(1/sqrt n); sampling needs no enumeration at all.\n"

(* ---- extension: scalable probabilistic querying --------------------------------------- *)

let pquery_enumerate () =
  section "Querying - sequential world enumeration (the reference evaluator)";
  let doc = query_document () in
  Printf.printf "document: %d nodes, %s possible worlds\n" (node_count doc)
    (human (world_count doc));
  List.iter
    (fun (label, q) ->
      let answers, t =
        time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q)
      in
      Printf.printf "%-4s %8.3fs  %d answers\n" label t (List.length answers))
    [ ("Q1", q1); ("Q2", q2) ]

let pquery_parallel () =
  section "Querying - parallel world enumeration (--jobs)";
  let doc = query_document () in
  Printf.printf "document: %s worlds, %d cores on this machine\n"
    (human (world_count doc))
    (Domain.recommended_domain_count ());
  let seq, t1 =
    time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q1)
  in
  let par, t4 =
    time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 ~jobs:4 doc q1)
  in
  Printf.printf "Q1 jobs=1: %.3fs   jobs=4: %.3fs   speedup %.2fx\n" t1 t4 (t1 /. t4);
  Printf.printf "answers agree: %b\n" (Answer.equal ~tolerance:1e-9 seq par);
  Printf.printf
    "(the shards partition the choice space; speedup tracks the number of\n\
     physical cores, and is ~1x on a single-core machine)\n"

let pquery_cached () =
  section "Querying - the LRU answer cache (store generations invalidate)";
  let doc = query_document () in
  let store = Store.create () in
  Store.put store "movies" (Store.Probabilistic doc);
  let run () =
    or_fail "cached query" Fmt.string
      (query_store ~strategy:Pquery.Enumerate_only ~world_limit:1e7 store "movies" q1)
  in
  let cold, t_cold = time run in
  let warm_runs = 1000 in
  let warm, t_warm_total =
    time (fun () ->
        let rec go n last = if n = 0 then last else go (n - 1) (run ()) in
        go warm_runs cold)
  in
  let t_warm = t_warm_total /. float_of_int warm_runs in
  Printf.printf "cold (miss, full enumeration): %8.3fs\n" t_cold;
  Printf.printf "warm (hit, avg of %d)        : %.6fs   speedup %.0fx\n" warm_runs t_warm
    (t_cold /. t_warm);
  Printf.printf "warm answers agree: %b\n" (Answer.equal ~tolerance:1e-9 cold warm);
  (* a put of the same name moves the generation; the next query must miss *)
  Store.put store "movies" (Store.Probabilistic doc);
  let misses = Obs.Metrics.counter "pquery.cache.miss" in
  let before = Obs.Metrics.count misses in
  let fresh, t_inval = time run in
  Printf.printf "after Store.put: recomputed (miss: %b) in %.3fs, agrees: %b\n"
    (Obs.Metrics.count misses = before + 1)
    t_inval
    (Answer.equal ~tolerance:1e-9 cold fresh)

(* ---- extension: graceful degradation -------------------------------------------------- *)

let pquery_degraded () =
  section "Resilience - graceful degradation under starved budgets (doc/resilience.md)";
  let doc = query_document () in
  (* count(..) is outside the direct evaluator's class, so the exact rung
     must enumerate — and 500 work units cannot cover this document *)
  let q = Printf.sprintf "count(%s)" q1 in
  let exact = rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q in
  Printf.printf "document: %d nodes, %s possible worlds; query: %s\n" (node_count doc)
    (human (world_count doc)) q;
  let budget = Resilience.Budget.create ~max_worlds:500 () in
  let graded, t = time (fun () -> Pquery.rank_graded ~budget doc q) in
  let prob answers v =
    match List.find_opt (fun (a : Answer.t) -> a.Answer.value = v) answers with
    | Some a -> a.Answer.prob
    | None -> 0.
  in
  let err =
    List.fold_left
      (fun acc (a : Answer.t) ->
        Float.max acc (Float.abs (a.Answer.prob -. prob graded.Resilience.Degrade.value a.Answer.value)))
      0. exact
  in
  (match graded.Resilience.Degrade.grade with
  | Resilience.Degrade.Exact ->
      Fmt.failwith "[%s] a 500-world budget cannot rank %g worlds exactly" !in_experiment
        (world_count doc)
  | Resilience.Degrade.Approximate { rung; tolerance; confidence } ->
      Printf.printf
        "budget 500 worlds: degraded to %-7s in %.3fs — max |error| %.4f vs declared \
         tolerance %.4f (confidence %.3f)\n"
        rung t err tolerance confidence;
      (* small slack on top of the declared bound for the Hoeffding tail *)
      if err > tolerance +. 0.02 then
        Fmt.failwith "[%s] degraded answer off by %.4f > declared %.4f" !in_experiment err
          tolerance);
  (* a deadline of D ms must halt an open-ended enumeration within 2·D *)
  let huge =
    Pxml.certain
      [
        Pxml.elem "r"
          (List.init 30 (fun i ->
               Pxml.dist
                 [
                   Pxml.choice ~prob:0.5
                     [ Pxml.Elem ("v", [], [ Pxml.certain [ Pxml.Text (string_of_int i) ] ]) ];
                   Pxml.choice ~prob:0.5 [];
                 ]))
      ]
  in
  let d_ms = 50 in
  let deadline = Resilience.Budget.create ~timeout_ms:d_ms () in
  let (), elapsed =
    time (fun () ->
        match
          rank ~budget:deadline ~strategy:Pquery.Enumerate_only ~world_limit:1e12 huge "//r/v"
        with
        | _ -> Fmt.failwith "[%s] 2^30 worlds cannot be enumerated in %d ms" !in_experiment d_ms
        | exception Resilience.Budget.Exceeded Resilience.Budget.Deadline -> ())
  in
  let elapsed_ms = elapsed *. 1000. in
  Printf.printf "deadline %d ms on 2^30 worlds: halted in %.1f ms" d_ms elapsed_ms;
  if elapsed_ms >= 2. *. float_of_int d_ms then
    Fmt.failwith "[%s] deadline %d ms only halted after %.1f ms (> 2x)" !in_experiment d_ms
      elapsed_ms;
  Printf.printf " (< 2x the deadline)\n";
  Printf.printf
    "(the ladder fell exact -> top-k -> sampling; every answer carries its\n\
     declared tolerance, so 'good is good enough' extends to time budgets)\n"

(* ---- extension: static analysis prune ------------------------------------------------- *)

let analyze_prune () =
  section "Static analysis - pruning statically-empty queries (doc/analysis.md)";
  let doc = query_document () in
  let dead = "//movie/nonexistent" in
  let pruned_counter = Obs.Metrics.counter "pquery.static_pruned" in
  let before = Obs.Metrics.count pruned_counter in
  let pruned, t_pruned =
    time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc dead)
  in
  let full, t_full =
    time (fun () ->
        rank ~strategy:Pquery.Enumerate_only ~static_check:false ~world_limit:1e7 doc
          dead)
  in
  Printf.printf "document: %d nodes, %s possible worlds\n" (node_count doc)
    (human (world_count doc));
  Printf.printf "dead query: %s (no such path exists in any world)\n" dead;
  Printf.printf "pruned (static check on): %.6fs  %d answers\n" t_pruned
    (List.length pruned);
  Printf.printf "full world enumeration  : %.3fs  %d answers\n" t_full (List.length full);
  Printf.printf "agree: %b   speedup: %.0fx   pquery.static_pruned: +%d\n"
    (pruned = full)
    (t_full /. Float.max t_pruned 1e-9)
    (Obs.Metrics.count pruned_counter - before);
  (* and a live query must sail through the check unpruned *)
  let live, t_live =
    time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q1)
  in
  Printf.printf "live query %s: %.3fs, %d answers (not pruned)\n" q1 t_live
    (List.length live)

(* ---- extension: static query planner --------------------------------------------------- *)

let pquery_direct_wide () =
  section "Static planner - routing the widened direct fragment (doc/analysis.md)";
  (* The §VI document first: integration feeds the usual counters, and the
     paper's queries plus widened shapes must all route past enumeration. *)
  let doc = query_document () in
  Printf.printf "document: %d nodes, %s possible worlds\n" (node_count doc)
    (human (world_count doc));
  List.iter
    (fun q ->
      let plan = Pquery.plan doc q in
      Printf.printf "%-9s %s\n"
        (Analyze.Plan.route_to_string plan.Analyze.Plan.route)
        q;
      if plan.Analyze.Plan.route <> Analyze.Plan.Direct then
        Fmt.failwith "[%s] %s did not route direct" !in_experiment q)
    [ q1; q2; "/descendant::movie/title"; "//movie/title/text()" ];
  let direct, t_direct = time (fun () -> rank doc q1) in
  let enum, t_enum =
    time (fun () -> rank ~strategy:Pquery.Enumerate_only ~world_limit:1e7 doc q1)
  in
  Printf.printf "Q1 planned (direct): %.4fs   forced enumeration: %.3fs   speedup %.0fx\n"
    t_direct t_enum
    (t_enum /. Float.max t_direct 1e-9);
  if not (Answer.equal ~tolerance:1e-9 direct enum) then
    Fmt.failwith "[%s] direct route disagrees with enumeration on Q1" !in_experiment;
  (* The fuzz-representative corpus: the differential harness's generator
     with a pool biased to the widened fragment. Every case runs under Auto
     with the static-empty prune off so the planner decides the route, and
     the route the evaluator takes must match the plan. Answer agreement
     with raw enumeration is certified exhaustively by @fuzz-smoke and
     @plan-stress; here the first two seeds are re-checked as a spot probe
     (a full per-case reference would drown pquery.path.enumerate in
     reference runs and make the routing tally meaningless). *)
  let widened =
    [
      "//a"; "//item/name"; "/descendant::a"; "//item/descendant::b"; "item/name";
      {|//a[contains(.,"z")]|}; {|//item[name="42"]/b[2]|}; {|//a[b[1]="x"]|};
      "//a/text()"; {|//a[.="x"]|};
    ]
  in
  let fallbacks = [ "//a[1]"; "count(//a)"; "//a | //b" ] in
  let c_direct = Obs.Metrics.counter "pquery.path.direct" in
  let c_enum = Obs.Metrics.counter "pquery.path.enumerate" in
  let d0 = Obs.Metrics.count c_direct and e0 = Obs.Metrics.count c_enum in
  let cases = ref 0 and spot_checked = ref 0 and disagreements = ref 0 in
  for seed = 0 to 29 do
    let doc = fst (Data.Random_docs.pxml (Data.Prng.make seed) ~depth:2) in
    if Pxml.world_count doc <= 5000. then
      List.iter
        (fun q ->
          incr cases;
          let plan = Pquery.plan doc q in
          let d_before = Obs.Metrics.count c_direct in
          let auto = rank ~static_check:false doc q in
          let took_direct = Obs.Metrics.count c_direct > d_before in
          (match plan.Analyze.Plan.route with
          | Analyze.Plan.Direct when not took_direct ->
              Fmt.failwith "[%s] plan routed %s direct but Auto enumerated"
                !in_experiment q
          | Analyze.Plan.Enumerate when took_direct ->
              Fmt.failwith "[%s] plan routed %s to enumeration but Auto went direct"
                !in_experiment q
          | _ -> ());
          if seed < 2 then begin
            incr spot_checked;
            let reference =
              rank ~strategy:Pquery.Enumerate_only ~static_check:false doc q
            in
            if not (Answer.equal ~tolerance:1e-9 auto reference) then
              incr disagreements
          end)
        (widened @ fallbacks)
  done;
  let routed_direct = Obs.Metrics.count c_direct - d0 in
  let routed_enum = Obs.Metrics.count c_enum - e0 in
  Printf.printf
    "corpus: %d (document, query) cases — routed direct: %d, enumeration fallbacks: \
     %d (incl. %d reference runs), disagreements vs raw enumeration: %d/%d spot-checked\n"
    !cases routed_direct routed_enum !spot_checked !disagreements !spot_checked;
  if !disagreements > 0 then
    Fmt.failwith "[%s] %d Auto answers disagree with enumeration" !in_experiment
      !disagreements;
  if routed_direct <= routed_enum then
    Fmt.failwith "[%s] direct routes (%d) do not dominate fallbacks (%d)" !in_experiment
      routed_direct routed_enum;
  Printf.printf
    "(the planner proves the route from the path summary alone; P-codes on the\n\
     fallbacks and the analyze.plan histogram land in the snapshot)\n"

(* ---- extension: title-threshold sensitivity ------------------------------------------- *)

let threshold () =
  section "Extension - sensitivity of the title rule's similarity threshold";
  let wl = Data.Workloads.confusing () in
  let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
  Printf.printf "%-10s %12s %14s %10s\n" "threshold" "nodes" "worlds" "undecided";
  List.iter
    (fun th ->
      let rules = Rulesets.movie ~title:true ~threshold:th () in
      match integration_stats ~rules ~dtd:wl.dtd a b with
      | Ok s ->
          Printf.printf "%-10.2f %12s %14s %10d\n" th (human s.Integrate.nodes)
            (human s.Integrate.worlds) s.Integrate.trace.Integrate.unsure_pairs
      | Error e -> Printf.printf "%-10.2f error: %s\n" th (Fmt.str "%a" Integrate.pp_error e))
    [ 0.0; 0.2; 0.3; 0.4; 0.5; 0.7; 0.95 ];
  Printf.printf
    "a stricter threshold prunes more pairs; past ~0.5 it also prunes the real\n\
     sequels' confusion away, which is when valid possibilities start to die.\n"

(* ---- extension: incremental integration ------------------------------------------------ *)

let incremental () =
  section "Extension - incremental integration (a third source arrives)";
  (* Names identify persons across all three books. *)
  let oracle =
    Imprecise.Oracle.make
      [ Imprecise.Oracle.deep_equal_rule; Imprecise.Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  let cfg = Integrate.config ~oracle ~dtd:Data.Addressbook.dtd () in
  let doc =
    or_fail "incremental setup" Integrate.pp_error
      (Integrate.integrate cfg Data.Addressbook.source_a Data.Addressbook.source_b)
  in
  Printf.printf "after A+B : %d nodes, %g worlds\n" (node_count doc) (world_count doc);
  let third =
    Imprecise.parse_xml_exn
      "<addressbook><person><nm>John</nm><tel>1111</tel></person><person><nm>Mary</nm><tel>3333</tel></person></addressbook>"
  in
  let doc =
    or_fail "incremental step" Integrate.pp_error
      (Integrate.integrate_incremental cfg doc third)
  in
  Printf.printf "after +C  : %d nodes, %g worlds\n" (node_count doc) (world_count doc);
  Printf.printf "\nphones for John after three sources:\n";
  print_answers (rank doc "//person[nm='John']/tel");
  Printf.printf "\nMary (only in C) is certain:\n";
  print_answers (rank doc "//person[nm='Mary']/tel")

(* ---- extension: scale (blocking) ------------------------------------------------------ *)

let scale () =
  section "Extension - scaling integration with entity-resolution blocking";
  let oracle =
    Imprecise.Oracle.make
      [ Imprecise.Oracle.deep_equal_rule; Imprecise.Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  let name_block t =
    if Tree.name t = Some "person" then Tree.field t "nm" else None
  in
  Printf.printf "%-8s %14s %14s %12s\n" "persons" "no blocking" "blocking" "nodes";
  List.iter
    (fun n ->
      let a, b = Data.Addressbook.larger n (1000 + n) in
      let run block =
        let cfg =
          if block then
            Integrate.config ~oracle ~dtd:Data.Addressbook.dtd ~block:name_block
              ~factorize:true ()
          else Integrate.config ~oracle ~dtd:Data.Addressbook.dtd ~factorize:true ()
        in
        or_fail "scale run" Integrate.pp_error (Integrate.integrate cfg a b)
      in
      let plain_time =
        if n <= 1000 then (
          let _, t = time (fun () -> run false) in
          Printf.sprintf "%.3fs" t)
        else "(skipped)"
      in
      let doc, blocked_time = time (fun () -> run true) in
      Printf.printf "%-8d %14s %13.3fs %12d\n" n plain_time blocked_time (node_count doc))
    [ 100; 400; 1000; 4000 ];
  Printf.printf
    "the Oracle is O(pairs) without blocking; with block keys computed once per\n\
     record, cross-block pairs are ruled out before the Oracle ever runs.\n"

(* ---- extension: pluggable blocking ----------------------------------------------------- *)

let integrate_blocking () =
  section "Extension - pluggable blocking & candidate indexing (integrate --blocker)";
  let oracle =
    Imprecise.Oracle.make
      [ Imprecise.Oracle.deep_equal_rule; Imprecise.Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  let run blocker a b =
    let cfg =
      Integrate.config ~oracle ~dtd:Data.Addressbook.dtd ~factorize:true ~blocker ()
    in
    match Integrate.integrate_traced cfg a b with
    | Ok (_, trace) -> trace
    | Error e -> Fmt.failwith "[%s] blocking run failed: %a" !in_experiment Integrate.pp_error e
  in
  Printf.printf "%-8s %-20s %12s %12s %12s %10s\n" "persons" "blocker" "generated"
    "compared" "blocked" "time";
  List.iter
    (fun n ->
      let a, b = Data.Addressbook.larger n (2000 + n) in
      let presets =
        (* the quadratic baseline is only feasible at the smallest size *)
        (if n <= 1_000 then [ ("all", Blocking.All_pairs) ] else [])
        @ [
            ("key", Blocking.key ~field:"nm" ());
            ("sortedneighbourhood", Blocking.sorted_neighbourhood ~field:"nm" ());
          ]
        (* the q-gram index verifies Jaccard per posting-list candidate, and
           this name pool shares most of its bigrams — past ~1k persons the
           cheap key/window plans are the right tools for this workload *)
        @ (if n <= 1_000 then [ ("qgram", Blocking.qgram ~field:"nm" ()) ] else [])
      in
      List.iter
        (fun (label, blocker) ->
          let trace, t = time (fun () -> run blocker a b) in
          Printf.printf "%-8d %-20s %12s %12s %12s %9.3fs\n" n label
            (human (float_of_int trace.Integrate.pairs_generated))
            (human (float_of_int trace.Integrate.pairs_compared))
            (human (float_of_int trace.Integrate.pairs_blocked))
            t)
        presets)
    [ 1_000; 10_000; 100_000 ];
  Printf.printf
    "the grid generates n^2 pairs; every blocker compares a near-linear subset\n\
     and stays bit-identical to All_pairs (certified by `dune build @block-stress`).\n"

(* ---- extension: parallel integration engine ------------------------------------------- *)

let integrate_parallel () =
  section "Extension - parallel verdict grid (integrate --jobs, doc/integrate.md)";
  let oracle =
    Imprecise.Oracle.make
      [ Imprecise.Oracle.deep_equal_rule; Imprecise.Oracle.key_rule ~tag:"person" ~field:"nm" ]
  in
  let name_block t =
    if Tree.name t = Some "person" then Tree.field t "nm" else None
  in
  let a, b = Data.Addressbook.larger 800 1800 in
  let cfg jobs =
    Integrate.config ~oracle ~dtd:Data.Addressbook.dtd ~block:name_block ~factorize:true
      ~jobs ()
  in
  let run jobs =
    or_fail "parallel integrate" Integrate.pp_error (Integrate.integrate (cfg jobs) a b)
  in
  Printf.printf "persons: 800 per book, cores on this machine: %d\n"
    (Domain.recommended_domain_count ());
  let doc1, t1 = time (fun () -> run 1) in
  let doc4, t4 = time (fun () -> run 4) in
  Printf.printf "jobs=1: %.3fs   jobs=4: %.3fs   speedup %.2fx\n" t1 t4 (t1 /. t4);
  Printf.printf "bit-identical: %b   nodes: %d\n"
    (Codec.to_string doc1 = Codec.to_string doc4)
    (node_count doc1);
  Printf.printf
    "(the candidate grid is sharded into contiguous row bands, one domain per\n\
     band; the merge is deterministic, so any jobs value is exact, and speedup\n\
     tracks physical cores)\n"

let integrate_incremental_bench () =
  section "Extension - batch integration reusing the Oracle decision cache";
  let third =
    Imprecise.parse_xml_exn
      "<addressbook><person><nm>John</nm><tel>1111</tel></person><person><nm>Mary</nm><tel>3333</tel></person></addressbook>"
  in
  let oracle_rules = Rulesets.generic in
  let sources = [ Data.Addressbook.source_a; Data.Addressbook.source_b; third ] in
  let plain, t_plain =
    time (fun () ->
        or_fail "integrate_all" Integrate.pp_error
          (integrate_all ~rules:oracle_rules ~dtd:Data.Addressbook.dtd sources))
  in
  let hits = Obs.Metrics.counter "oracle.cache.hit" in
  let h0 = Obs.Metrics.count hits in
  let cached, t_cached =
    time (fun () ->
        or_fail "integrate_many" Integrate.pp_error
          (integrate_many ~rules:oracle_rules ~dtd:Data.Addressbook.dtd ~jobs:2 sources))
  in
  Printf.printf "three sources folded; worlds: %g\n" (world_count cached);
  Printf.printf "integrate_all  (no cache): %.4fs\n" t_plain;
  Printf.printf "integrate_many (cache+jobs=2): %.4fs   oracle.cache.hit: +%d\n" t_cached
    (Obs.Metrics.count hits - h0);
  Printf.printf "results agree: %b\n"
    (Codec.to_string plain = Codec.to_string cached);
  Printf.printf
    "(the incremental step re-integrates the new source against every prior\n\
     world; the decision cache answers the repeated subtree pairs without\n\
     consulting the rules again)\n"

(* ---- compact binary store & hash-consing ---------------------------------------------- *)

let store_binary_roundtrip () =
  section "Extension - compact binary store (v3) vs XML persistence (doc/store.md)";
  let fig2 =
    integrate_or_fail ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd
      Data.Addressbook.source_a Data.Addressbook.source_b
  in
  let wl = Data.Workloads.confusing () in
  let movies = Data.Workloads.mpeg7_doc wl in
  let qdoc = query_document () in
  let s = Store.create () in
  Store.put s "fig2" (Store.Probabilistic fig2);
  Store.put s "query-doc" (Store.Probabilistic qdoc);
  Store.put s "movies" (Store.Certain movies);
  let tmp = Filename.get_temp_dir_name () in
  let dir_xml = Filename.concat tmp "imprecise-bench-store-xml" in
  let dir_bin = Filename.concat tmp "imprecise-bench-store-bin" in
  or_fail "xml save" Fmt.string (Store.save s ~dir:dir_xml);
  or_fail "binary save" Fmt.string (Store.save ~format:Store.Binary s ~dir:dir_bin);
  let payload_bytes dir suffix =
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f suffix then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 (Sys.readdir dir)
  in
  let xml_bytes = payload_bytes dir_xml ".xml"
  and bin_bytes = payload_bytes dir_bin ".ipx" in
  Printf.printf "on-disk payload: xml %d B   binary %d B   ratio %.2fx\n" xml_bytes
    bin_bytes
    (float_of_int xml_bytes /. float_of_int bin_bytes);
  (* codec-only comparison: the same documents through each serialisation,
     timed per decode (the store's IO and manifest work is shared overhead) *)
  let h_xml = Obs.Metrics.histogram "store.parse_xml"
  and h_bin = Obs.Metrics.histogram "store.parse_binary" in
  let xml_strs = List.map Codec.to_string [ fig2; qdoc ] in
  let bin_strs = List.map Bincodec.doc_to_string [ fig2; qdoc ] in
  for _ = 1 to 40 do
    let (), t_xml =
      time (fun () ->
          List.iter
            (fun str -> ignore (or_fail "xml decode" Fmt.string (Codec.of_string str)))
            xml_strs)
    in
    Obs.Metrics.observe h_xml (t_xml *. 1000.);
    let (), t_bin =
      time (fun () ->
          List.iter
            (fun str -> ignore (or_fail "binary decode" Fmt.string (Bincodec.of_string str)))
            bin_strs)
    in
    Obs.Metrics.observe h_bin (t_bin *. 1000.)
  done;
  let p50 h = (Obs.Metrics.stats h).Obs.Metrics.p50 in
  Printf.printf "decode p50: xml %.3f ms   binary %.3f ms   speedup %.1fx\n" (p50 h_xml)
    (p50 h_bin)
    (p50 h_xml /. p50 h_bin);
  (* whole-store reloads (manifest verify, checksums, salvage scan included) *)
  let (loaded_xml, _), t_xml = time (fun () -> or_fail "xml load" Fmt.string (Store.load dir_xml)) in
  let (loaded_bin, _), t_bin = time (fun () -> or_fail "binary load" Fmt.string (Store.load dir_bin)) in
  let doc_of st = match Store.get st "fig2" with
    | Some (Store.Probabilistic d) -> d
    | _ -> Fmt.failwith "[%s] fig2 missing after reload" !in_experiment
  in
  Printf.printf "store.load: xml %.4fs   binary %.4fs\n" t_xml t_bin;
  Printf.printf "bit-identical reload: %b\n"
    (Codec.to_string (doc_of loaded_xml) = Codec.to_string fig2
    && Codec.to_string (doc_of loaded_bin) = Codec.to_string fig2);
  Printf.printf
    "(the v3 frame is magic + version + kind + varint length + CRC-32; the\n\
     payload writes each distinct subtree once and back-references repeats,\n\
     so dedup happens on disk too — see doc/store.md)\n"

let intern_dedup () =
  section "Extension - hash-consed subtrees (weak intern pool, doc/pxml.md)";
  let fig2 =
    integrate_or_fail ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd
      Data.Addressbook.source_a Data.Addressbook.source_b
  in
  let hits = Obs.Metrics.counter "pxml.intern.hit"
  and misses = Obs.Metrics.counter "pxml.intern.miss" in
  let h0 = Obs.Metrics.count hits and m0 = Obs.Metrics.count misses in
  let interned = Intern.doc fig2 in
  let h1 = Obs.Metrics.count hits and m1 = Obs.Metrics.count misses in
  Printf.printf "first intern: %d hits, %d misses (pool fills bottom-up)\n" (h1 - h0)
    (m1 - m0);
  (* a structurally-equal deep copy — fresh allocations throughout — must
     resolve to the same canonical pointers without growing any pool *)
  let copy =
    or_fail "codec roundtrip" Fmt.string (Codec.of_string (Codec.to_string fig2))
  in
  let copy' = Intern.doc copy in
  let h2 = Obs.Metrics.count hits and m2 = Obs.Metrics.count misses in
  Printf.printf "re-intern of a deep copy: %d hits, %d misses, same pointer: %b\n"
    (h2 - h1) (m2 - m1) (copy' == interned);
  Printf.printf "node occurrences %d   distinct after interning %d\n" (node_count fig2)
    (Intern.distinct_nodes interned);
  (* the payoff: deep equality on interned values is a pointer check *)
  let fresh_a =
    or_fail "codec roundtrip" Fmt.string (Codec.of_string (Codec.to_string fig2))
  in
  let fresh_b =
    or_fail "codec roundtrip" Fmt.string (Codec.of_string (Codec.to_string fig2))
  in
  let reps = 20_000 in
  let _, t_deep =
    time (fun () ->
        for _ = 1 to reps do
          assert (Pxml.equal fresh_a fresh_b)
        done)
  in
  let ia = Intern.doc fresh_a and ib = Intern.doc fresh_b in
  let _, t_ptr =
    time (fun () ->
        for _ = 1 to reps do
          assert (Pxml.equal ia ib)
        done)
  in
  Printf.printf "%d deep-equality checks: fresh %.4fs   interned %.4fs (%.0fx)\n" reps
    t_deep t_ptr (t_deep /. Float.max 1e-9 t_ptr);
  Printf.printf
    "(Decision_cache keys, dedup-compaction and the binary codec all lean on\n\
     this: hashing an interned subtree is O(1) and equality short-circuits\n\
     on physical identity)\n"

(* ---- bechamel performance benches ---------------------------------------------------- *)

let perf () =
  section "Performance (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let wl = Data.Workloads.confusing () in
  let a = Data.Workloads.mpeg7_doc wl and b = Data.Workloads.imdb_doc wl in
  let full = Rulesets.movie ~genre:true ~title:true ~year:true ~director:true () in
  let qdoc = query_document () in
  let movie_xml = Xml.Printer.to_string ~indent:2 a in
  let fig2 =
    integrate_or_fail ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd
      Data.Addressbook.source_a Data.Addressbook.source_b
  in
  (* the atomicity overhead of persistence (tmp + fsync + rename, CRC-32,
     manifest commit) measured on a mixed certain/probabilistic collection *)
  let store_dir = Filename.concat (Filename.get_temp_dir_name ()) "imprecise-bench-store" in
  let doc_store =
    let s = Store.create () in
    Store.put s "mpeg7" (Store.Certain a);
    Store.put s "imdb" (Store.Certain b);
    Store.put s "fig2" (Store.Probabilistic fig2);
    Store.put s "query-doc" (Store.Probabilistic qdoc);
    s
  in
  or_fail "bench store save" Fmt.string (Store.save doc_store ~dir:store_dir);
  let tests =
    [
      Test.make ~name:"xml.parse movie collection"
        (Staged.stage (fun () -> Xml.Parser.parse_string_exn movie_xml));
      Test.make ~name:"xpath.parse Q2" (Staged.stage (fun () -> Xpath.Parser.parse_exn q2));
      Test.make ~name:"xpath.eval //movie/title on certain doc"
        (Staged.stage (fun () -> Xpath.Eval.select_strings a "//movie/title"));
      Test.make ~name:"integrate fig2"
        (Staged.stage (fun () ->
             integrate_or_fail ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd
               Data.Addressbook.source_a Data.Addressbook.source_b));
      Test.make ~name:"integrate confusing 6v6 (full rules)"
        (Staged.stage (fun () -> integrate_or_fail ~rules:full ~dtd:wl.dtd a b));
      Test.make ~name:"stats confusing 6v6 (no rules, 13k matchings)"
        (Staged.stage (fun () -> stats_or_fail ~rules:Rulesets.generic ~dtd:wl.dtd a b));
      Test.make ~name:"rank Q1 direct (query doc)"
        (Staged.stage (fun () -> rank ~strategy:Pquery.Direct_only qdoc q1));
      Test.make ~name:"rank //person/tel enumerate (fig2)"
        (Staged.stage (fun () ->
             rank ~strategy:Pquery.Enumerate_only fig2 "//person/tel"));
      Test.make ~name:"compact query doc" (Staged.stage (fun () -> Compact.compact qdoc));
      Test.make ~name:"codec.encode+decode fig2"
        (Staged.stage (fun () -> Codec.of_string (Codec.to_string fig2)));
      Test.make ~name:"store.save 4 docs (atomic, fsync+manifest)"
        (Staged.stage (fun () ->
             or_fail "store.save bench" Fmt.string (Store.save doc_store ~dir:store_dir)));
      Test.make ~name:"store.load 4 docs (manifest verify + salvage)"
        (Staged.stage (fun () ->
             or_fail "store.load bench" Fmt.string
               (Result.map fst (Store.load store_dir))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              let label = Test.Elt.name elt in
              if ns >= 1e9 then Printf.printf "%-46s %10.2f s/run\n" label (ns /. 1e9)
              else if ns >= 1e6 then Printf.printf "%-46s %10.2f ms/run\n" label (ns /. 1e6)
              else if ns >= 1e3 then Printf.printf "%-46s %10.2f us/run\n" label (ns /. 1e3)
              else Printf.printf "%-46s %10.0f ns/run\n" label ns
          | _ -> Printf.printf "%-46s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests

(* ---- driver ----------------------------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("figure5", figure5);
    ("typical", typical);
    ("addressbook", addressbook);
    ("queries", queries);
    ("pquery_enumerate", pquery_enumerate);
    ("pquery_parallel", pquery_parallel);
    ("pquery_cached", pquery_cached);
    ("pquery_degraded", pquery_degraded);
    ("analyze_prune", analyze_prune);
    ("pquery_direct_wide", pquery_direct_wide);
    ("quality", quality);
    ("feedback", feedback);
    ("reduction", reduction);
    ("sampling", sampling);
    ("threshold", threshold);
    ("incremental", incremental);
    ("scale", scale);
    ("integrate_parallel", integrate_parallel);
    ("integrate_incremental", integrate_incremental_bench);
    ("integrate_blocking", integrate_blocking);
    ("store_binary_roundtrip", store_binary_roundtrip);
    ("intern_dedup", intern_dedup);
    ("ablation", ablation);
    ("perf", perf);
  ]

(* With [--json FILE] each experiment runs against a freshly-reset global
   metrics registry; its snapshot plus wall time lands in a BENCH_core-style
   file (schema "imprecise-bench/1") that bench/check_snapshot.exe
   validates. See doc/observability.md for the snapshot shape. *)
let json_of_run (name, wall_s, snap) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String name);
      ("wall_s", Obs.Json.Float wall_s);
      ("metrics", Obs.Metrics.to_json snap);
    ]

let run_experiment ~record name f =
  in_experiment := name;
  if Option.is_some record then Obs.Metrics.reset ();
  let (), wall_s = time (fun () -> Obs.Trace.with_span ("bench." ^ name) f) in
  Option.iter
    (fun acc -> acc := (name, wall_s, Obs.Metrics.snapshot ()) :: !acc)
    record;
  in_experiment := "(harness)"

let () =
  let rec split json acc = function
    | [] -> (json, List.rev acc)
    | "--json" :: file :: rest -> split (Some file) acc rest
    | [ "--json" ] ->
        prerr_endline "--json requires a file argument";
        exit 1
    | arg :: rest -> split json (arg :: acc) rest
  in
  let json_file, names = split None [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match names with
    | [] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" name
                  (String.concat ", " (List.map fst experiments));
                exit 1)
          names
  in
  let record = Option.map (fun _ -> ref []) json_file in
  List.iter (fun (name, f) -> run_experiment ~record name f) selected;
  match (json_file, record) with
  | Some file, Some acc ->
      let json =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.String "imprecise-bench/1");
            ("experiments", Obs.Json.List (List.rev_map json_of_run !acc));
          ]
      in
      let oc = open_out file in
      output_string oc (Obs.Json.to_string ~indent:2 json);
      output_string oc "\n";
      close_out oc;
      Printf.printf "\nwrote %s (%d experiments)\n" file (List.length !acc)
  | _ -> ()
