(* The imprecise command-line tool: integrate, inspect, query and give
   feedback on probabilistic XML documents.

     imprecise integrate a.xml b.xml --rules genre,title -o out.xml
     imprecise stats a.xml b.xml --rules none
     imprecise query out.xml '//movie[.//genre="Horror"]/title'
     imprecise worlds out.xml
     imprecise feedback out.xml '//person/tel' 2222 --incorrect -o out.xml
     imprecise doctor /var/lib/imprecise/store
     imprecise demo *)

open Cmdliner
open Imprecise

(* ---- shared argument handling --------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A document file is either plain XML or a pxml-encoded probabilistic
   document (recognised by its p:prob root). *)
let load_doc path : (Pxml.doc, string) result =
  match Xml.Parser.parse_file path with
  | Error e -> Error (Fmt.str "%s: %s" path (Xml.Parser.error_to_string e))
  | Ok tree ->
      if Tree.name tree = Some Codec.prob_tag then Codec.decode tree
      else Ok (Pxml.doc_of_tree tree)

let load_certain path : (Tree.t, string) result =
  Result.map_error
    (fun e -> Fmt.str "%s: %s" path (Xml.Parser.error_to_string e))
    (Xml.Parser.parse_file path)

let rules_of_string s : (Rulesets.t, string) result =
  match s with
  | "none" | "generic" -> Ok Rulesets.generic
  | "full" -> Ok Rulesets.full
  | s ->
      let flags = String.split_on_char ',' s in
      let known = [ "genre"; "title"; "year"; "director" ] in
      let bad = List.filter (fun f -> not (List.mem f known)) flags in
      if bad <> [] then
        Error
          (Fmt.str "unknown rule(s) %s; expected none, full, or a comma-list of %s"
             (String.concat ", " bad) (String.concat ", " known))
      else
        let has f = List.mem f flags in
        Ok
          (Rulesets.movie ~genre:(has "genre") ~title:(has "title") ~year:(has "year")
             ~director:(has "director") ())

let rules_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (rules_of_string s) in
  let print ppf (r : Rulesets.t) = Fmt.string ppf r.name in
  Arg.conv (parse, print)

let rules_arg =
  Arg.(
    value
    & opt rules_conv Rulesets.full
    & info [ "rules"; "r" ] ~docv:"RULES"
        ~doc:
          "Knowledge rules for the Oracle: $(b,none), $(b,full), or a comma-separated \
           subset of genre,title,year,director.")

let dtd_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "dtd" ] ~docv:"FILE"
        ~doc:
          "Cardinality declarations, one per line, e.g. 'person: nm?, tel?'. Used to \
           reject impossible worlds during integration.")

let load_dtd = function
  | None -> Ok Dtd.empty
  | Some path -> Result.map_error (fun e -> Fmt.str "%s: %s" path e) (Dtd.of_string (read_file path))


let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the resulting probabilistic document to $(docv) (pxml encoding).")

let write_output doc = function
  | None -> print_endline (Codec.to_string ~indent:2 doc)
  | Some path ->
      Xml.Printer.to_file ~decl:true ~indent:2 path (Codec.encode doc);
      Fmt.pr "wrote %s@." path

let or_die = function
  | Ok v -> v
  | Error msg ->
      Fmt.epr "imprecise: %s@." msg;
      exit 1

let die fmt = Fmt.kstr (fun msg -> or_die (Error msg)) fmt

(* ---- telemetry -------------------------------------------------------------- *)

type telemetry = {
  trace : bool;  (* span tree + metrics snapshot to stderr *)
  trace_out : string option;  (* Chrome trace-event JSON file *)
  events_out : string option;  (* JSONL structured-event file *)
}

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record timing spans and metrics while the command runs, and print the span \
           tree and a metrics snapshot to stderr afterwards (see doc/observability.md).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the recorded spans to $(docv) as Chrome trace-event JSON, loadable \
           in Perfetto or chrome://tracing.")

let events_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events-out" ] ~docv:"FILE"
        ~doc:
          "Stream structured flight-recorder events (oracle verdicts, cache hits, \
           budget trips, degradations, per-op records) to $(docv) as JSON lines; \
           aggregate afterwards with $(b,imprecise report).")

let telemetry_term =
  Term.(
    const (fun trace trace_out events_out -> { trace; trace_out; events_out })
    $ trace_arg $ trace_out_arg $ events_out_arg)

(* The report runs once, as a [Fun.protect] finaliser for exceptions and
   via [at_exit] for the subcommands (doctor, validate, …) that [exit]
   mid-body — [Stdlib.exit] does not unwind [Fun.protect]. Spans still
   open at a hard [exit] are simply not reported. Tracing is installed for
   any of the three outputs: the event stream wants span ids on its events
   even when nobody asked for the span tree itself. *)
let with_telemetry t f =
  if not (t.trace || t.trace_out <> None || t.events_out <> None) then f ()
  else begin
    let sink, roots = Obs.Trace.collector () in
    Obs.Trace.install sink;
    let events_oc =
      Option.map
        (fun path ->
          let oc = open_out path in
          Obs.Event.enable ~sink:(Obs.Event.jsonl_sink oc) ();
          oc)
        t.events_out
    in
    let reported = ref false in
    let report () =
      if not !reported then begin
        reported := true;
        Obs.Trace.uninstall ();
        let spans = roots () in
        (match events_oc with
        | Some oc ->
            Obs.Event.disable ();
            close_out oc
        | None -> ());
        (match t.trace_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Obs.Json.to_string (Obs.Trace.to_chrome spans));
            output_char oc '\n';
            close_out oc
        | None -> ());
        if t.trace then begin
          Fmt.epr "--- trace spans ---@.";
          List.iter (fun s -> Fmt.epr "%s" (Obs.Trace.to_text s)) spans;
          Fmt.epr "--- metrics ---@.%s@?" (Obs.Metrics.to_text (Obs.Metrics.snapshot ()))
        end
      end
    in
    at_exit report;
    Fun.protect ~finally:report f
  end

(* ---- resilience -------------------------------------------------------------- *)

let timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Deadline for the command's heavy work (world enumeration, candidate-grid \
           scoring), in milliseconds. Query falls down a degradation ladder to a \
           cheaper approximate answer; integrate and stats report a clean budget \
           error. See doc/resilience.md.")

let max_worlds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-worlds" ] ~docv:"N"
        ~doc:
          "Work budget: at most $(docv) enumerated worlds / grid cells before the \
           command degrades (query) or stops with a budget error (integrate, stats).")

let budget_of timeout_ms max_worlds =
  match (timeout_ms, max_worlds) with
  | None, None -> None
  | _ -> (
      try Some (Resilience.Budget.create ?timeout_ms ?max_worlds ())
      with Invalid_argument msg -> or_die (Error msg))

let resilience_totals () =
  let count name = Obs.Metrics.count (Obs.Metrics.counter name) in
  ( count "resilience.retries",
    count "resilience.retry_giveups",
    count "resilience.deadline_exceeded",
    count "pquery.degraded" )

(* ---- blocking ---------------------------------------------------------------- *)

let blocker_name_arg =
  Arg.(
    value
    & opt string "all"
    & info [ "blocker" ] ~docv:"NAME"
        ~doc:
          "Candidate-indexing stage run in front of the Oracle: $(b,all) (full grid, \
           the default), $(b,key) (exact normalized key), $(b,qgram) (inverted q-gram \
           similarity index) or $(b,sortedneighbourhood) (sorted window). See \
           doc/integrate.md for the recall guarantees of each.")

let block_field_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "block-field" ] ~docv:"TAG"
        ~doc:
          "Blocking key: the text of child element $(docv) (e.g. $(b,nm) or \
           $(b,title)). Default: the element's whole text content.")

let block_threshold_arg =
  Arg.(
    value
    & opt float 0.3
    & info [ "block-threshold" ] ~docv:"T"
        ~doc:
          "Minimum q-gram Jaccard similarity for a pair to survive $(b,--blocker \
           qgram), in [0,1]. 0 disables pruning; lower is safer, higher prunes more.")

let block_window_arg =
  Arg.(
    value
    & opt int 7
    & info [ "block-window" ] ~docv:"W"
        ~doc:"Window size for $(b,--blocker sortedneighbourhood).")

let block_q_arg =
  Arg.(
    value
    & opt int 2
    & info [ "block-q" ] ~docv:"Q" ~doc:"Gram length for $(b,--blocker qgram).")

let blocker_term =
  Term.(
    const (fun name field threshold window q ->
        or_die (Blocking.of_string ?field ~q ~threshold ~window name))
    $ blocker_name_arg $ block_field_arg $ block_threshold_arg $ block_window_arg
    $ block_q_arg)

let infer_dtd_arg =
  Arg.(
    value & flag
    & info [ "infer-dtd" ]
        ~doc:
          "Derive cardinality knowledge from the sources themselves: child tags that \
           never repeat under a parent are treated as at-most-one. Combined with --dtd \
           if both are given (explicit declarations win).")

let resolve_dtd ~infer dtd_file docs =
  let explicit = or_die (load_dtd dtd_file) in
  if not infer then explicit
  else
    let inferred = Dtd.infer docs in
    (* explicit declarations override inferred ones *)
    List.fold_left
      (fun d (p, c, o) -> Dtd.declare d ~parent:p ~child:c o)
      inferred (Dtd.declarations explicit)

let report_doc doc =
  Fmt.pr "nodes: %d  world combinations: %g@." (node_count doc) (world_count doc)

(* ---- integrate -------------------------------------------------------------- *)

let integrate_cmd =
  let run inputs rules dtd infer factorize jobs blocker timeout_ms max_worlds output
      tele =
    with_telemetry tele @@ fun () ->
    (match inputs with
    | _ :: _ :: _ -> ()
    | _ ->
        Fmt.epr "imprecise: integrate needs at least two documents@.";
        exit 1);
    let docs = List.map (fun p -> or_die (load_certain p)) inputs in
    let dtd = resolve_dtd ~infer dtd docs in
    let budget = budget_of timeout_ms max_worlds in
    match integrate_many ~rules ~dtd ~factorize ~blocker ~jobs ?budget docs with
    | Error e ->
        Fmt.epr "imprecise: %a@." Integrate.pp_error e;
        exit 1
    | Ok doc ->
        report_doc doc;
        write_output doc output
  in
  let inputs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SOURCE.xml")
  in
  let factorize =
    Arg.(value & flag & info [ "factorize" ] ~doc:"Store independent clusters locally (compact representation).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Score each candidate grid with $(docv) OCaml domains. Any $(docv) produces \
             a bit-identical result to sequential integration (see doc/integrate.md).")
  in
  Cmd.v
    (Cmd.info "integrate"
       ~doc:
         "Probabilistically integrate two or more XML documents. The first two are \
          integrated directly; each further document is folded in incrementally, \
          reusing one Oracle decision cache across the whole batch.")
    Term.(
      const run $ inputs $ rules_arg $ dtd_arg $ infer_dtd_arg $ factorize $ jobs
      $ blocker_term $ timeout_arg $ max_worlds_arg $ output_arg $ telemetry_term)

(* ---- stats -------------------------------------------------------------------- *)

let stats_cmd =
  let run left right rules dtd infer factorize blocker timeout_ms max_worlds tele =
    with_telemetry tele @@ fun () ->
    let a = or_die (load_certain left) and b = or_die (load_certain right) in
    let dtd = resolve_dtd ~infer dtd [ a; b ] in
    let budget = budget_of timeout_ms max_worlds in
    match integration_stats ~rules ~dtd ~factorize ~blocker ?budget a b with
    | Error e ->
        Fmt.epr "imprecise: %a@." Integrate.pp_error e;
        exit 1
    | Ok s ->
        Fmt.pr "rules: %s@." rules.Rulesets.name;
        Fmt.pr "blocker: %s@." (Blocking.describe blocker);
        Fmt.pr "nodes: %.0f@." s.Integrate.nodes;
        Fmt.pr "world combinations: %g@." s.Integrate.worlds;
        Fmt.pr "pairs generated: %d@." s.Integrate.trace.Integrate.pairs_generated;
        Fmt.pr "pairs compared: %d (blocked: %d)@."
          s.Integrate.trace.Integrate.pairs_compared
          s.Integrate.trace.Integrate.pairs_blocked;
        Fmt.pr "undecided pairs: %d@." s.Integrate.trace.Integrate.unsure_pairs;
        Fmt.pr "forced matches: %d@." s.Integrate.trace.Integrate.same_pairs;
        Fmt.pr "clusters: %d (largest enumeration: %d)@."
          s.Integrate.trace.Integrate.cluster_count
          s.Integrate.trace.Integrate.largest_enumeration;
        let retries, giveups, deadlines, degraded = resilience_totals () in
        Fmt.pr "resilience: retries=%d giveups=%d deadline_exceeded=%d degraded=%d@."
          retries giveups deadlines degraded
  in
  let left = Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT.xml") in
  let right = Arg.(required & pos 1 (some file) None & info [] ~docv:"RIGHT.xml") in
  let factorize = Arg.(value & flag & info [ "factorize" ] ~doc:"Measure the factorised representation.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Compute the size of an integration without materialising it (works far beyond \
          what $(b,integrate) can build).")
    Term.(
      const run $ left $ right $ rules_arg $ dtd_arg $ infer_dtd_arg $ factorize
      $ blocker_term $ timeout_arg $ max_worlds_arg $ telemetry_term)

(* ---- rules ---------------------------------------------------------------------- *)

let rules_cmd =
  let run tele =
    with_telemetry tele @@ fun () ->
    List.iter
      (fun (r : Rulesets.t) ->
        Fmt.pr "%-22s %s@." r.Rulesets.name r.Rulesets.description;
        List.iter (fun n -> Fmt.pr "    - %s@." n) (Oracle.rule_names r.Rulesets.oracle))
      (Rulesets.table1 @ [ Rulesets.full ])
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List the built-in Oracle rule presets and their rules.")
    Term.(const run $ telemetry_term)

(* ---- query --------------------------------------------------------------------- *)

let strategy_names = [ "auto"; "direct"; "enumerate"; "sample" ]

let query_cmd =
  let run path query strategy samples seed jobs top_k timeout_ms max_worlds tele =
    with_telemetry tele @@ fun () ->
    let doc = or_die (load_doc path) in
    let strategy =
      match strategy with
      | "auto" -> Pquery.Auto
      | "direct" -> Pquery.Direct_only
      | "enumerate" -> Pquery.Enumerate_only
      | "sample" -> Pquery.Sample { n = samples; seed }
      | s ->
          Fmt.epr "imprecise: unknown strategy %S (expected %s)@." s
            (String.concat ", " strategy_names);
          exit 1
    in
    if jobs < 1 then begin
      Fmt.epr "imprecise: --jobs must be at least 1@.";
      exit 1
    end;
    (match top_k with
    | Some k when k < 1 ->
        Fmt.epr "imprecise: --top-k must be at least 1@.";
        exit 1
    | _ -> ());
    let budget = budget_of timeout_ms max_worlds in
    (* With a budget and the default strategy, answer through the
       degradation ladder: always an answer, graded by how approximate.
       An explicit strategy is honoured instead — there a blown budget is
       a clean error, not a silent strategy change. *)
    match (budget, strategy) with
    | Some _, Pquery.Auto -> (
        match Pquery.rank_graded ?budget ~jobs ?top_k doc query with
        | { Resilience.Degrade.value; grade } ->
            if not (Resilience.Degrade.is_exact grade) then
              Fmt.epr "imprecise: budget exhausted, degraded answer: %a@."
                Resilience.Degrade.pp_grade grade;
            Fmt.pr "%a@?" Answer.pp value
        | exception Failure msg ->
            Fmt.epr "imprecise: %s@." msg;
            exit 1)
    | _ -> (
        match Pquery.rank ?budget ~strategy ~jobs ?top_k doc query with
        | answers -> Fmt.pr "%a@?" Answer.pp answers
        | exception Pquery.Cannot_answer msg ->
            Fmt.epr "imprecise: cannot answer: %s@." msg;
            exit 1
        | exception Resilience.Budget.Exceeded reason ->
            Fmt.epr
              "imprecise: budget exceeded (%s) under --strategy %a; drop --strategy to \
               degrade gracefully@."
              (Resilience.Budget.reason_to_string reason)
              (fun ppf -> function
                | Pquery.Direct_only -> Fmt.string ppf "direct"
                | Pquery.Enumerate_only -> Fmt.string ppf "enumerate"
                | Pquery.Sample _ -> Fmt.string ppf "sample"
                | Pquery.Auto -> Fmt.string ppf "auto")
              strategy;
            exit 1
        | exception Failure msg ->
            Fmt.epr "imprecise: %s@." msg;
            exit 1)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY") in
  let strategy =
    Arg.(
      value & opt string "auto"
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"auto, direct, enumerate, or sample (Monte-Carlo estimate).")
  in
  let samples =
    Arg.(value & opt int 10_000 & info [ "samples" ] ~docv:"N" ~doc:"Sample count for --strategy sample.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for --strategy sample.") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Enumerate possible worlds on $(docv) parallel domains. The answer \
             distribution is identical; 1 (the default) is the sequential path.")
  in
  let top_k =
    Arg.(
      value & opt (some int) None
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Report only the $(docv) most likely answers, stopping the enumeration \
             early once their order is provably final.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a (probabilistic or plain) document; answers are ranked by the \
          probability that they belong to the result.")
    Term.(
      const run $ path $ query $ strategy $ samples $ seed $ jobs $ top_k $ timeout_arg
      $ max_worlds_arg $ telemetry_term)

(* ---- worlds -------------------------------------------------------------------- *)

let worlds_cmd =
  let run path limit top tele =
    with_telemetry tele @@ fun () ->
    let doc = or_die (load_doc path) in
    let print (p, forest) =
      Fmt.pr "%.4f  %s@." p
        (String.concat "" (List.map (fun t -> Xml.Printer.to_string t) forest))
    in
    match top with
    | Some k ->
        (* k-best works at any scale, no enumeration *)
        List.iter print (Worlds.most_likely ~k doc)
    | None ->
        let combos = world_count doc in
        if combos > float_of_int limit then begin
          Fmt.epr
            "imprecise: %g world combinations exceed --limit %d (hint: --top K works at any scale)@."
            combos limit;
          exit 1
        end;
        List.iter print (Worlds.merged doc)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let limit =
    Arg.(value & opt int 10_000 & info [ "limit" ] ~docv:"N" ~doc:"Refuse to enumerate more than $(docv) combinations.")
  in
  let top =
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc:"Only the $(docv) most likely worlds (works on documents of any size).")
  in
  Cmd.v
    (Cmd.info "worlds" ~doc:"Enumerate the possible worlds of a probabilistic document.")
    Term.(const run $ path $ limit $ top $ telemetry_term)

(* ---- feedback -------------------------------------------------------------------- *)

let feedback_cmd =
  let run path query value incorrect exact output tele =
    with_telemetry tele @@ fun () ->
    let doc = or_die (load_doc path) in
    let correct = not incorrect in
    let result =
      if exact then Feedback.assert_answer doc ~query ~value ~correct
      else Feedback.prune doc ~query ~value ~correct
    in
    match result with
    | Error e ->
        Fmt.epr "imprecise: %a@." Feedback.pp_error e;
        exit 1
    | Ok doc' ->
        Fmt.pr "before: %d nodes, %g worlds@." (node_count doc) (world_count doc);
        Fmt.pr "after : %d nodes, %g worlds@." (node_count doc') (world_count doc');
        write_output doc' output
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY") in
  let value = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE") in
  let incorrect =
    Arg.(value & flag & info [ "incorrect" ] ~doc:"Assert the value is NOT a correct answer (default: it is).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Exact Bayesian conditioning (rebuilds the document) instead of in-place pruning.")
  in
  Cmd.v
    (Cmd.info "feedback"
       ~doc:"Assert that VALUE is a correct/incorrect answer of QUERY and remove the data of inconsistent worlds.")
    Term.(const run $ path $ query $ value $ incorrect $ exact $ output_arg $ telemetry_term)

(* ---- explain --------------------------------------------------------------------- *)

let explain_cmd =
  let run path query value k tele =
    with_telemetry tele @@ fun () ->
    let doc = or_die (load_doc path) in
    match Pquery.explain ~k doc query value with
    | e ->
        Fmt.pr "P(%S in answer) = %.3f@." value e.Pquery.prob;
        Fmt.pr "examined the %d most likely worlds (%.1f%% of the probability mass)@."
          (List.length e.Pquery.supporting + List.length e.Pquery.opposing)
          (100. *. e.Pquery.covered);
        let show label worlds =
          Fmt.pr "%s:@." label;
          List.iter
            (fun (p, forest) ->
              Fmt.pr "  %.4f  %s@." p
                (String.concat "" (List.map (fun t -> Xml.Printer.to_string t) forest)))
            worlds
        in
        show "supporting worlds" e.Pquery.supporting;
        show "opposing worlds" e.Pquery.opposing
    | exception Pquery.Cannot_answer msg ->
        Fmt.epr "imprecise: cannot answer: %s@." msg;
        exit 1
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY") in
  let value = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE") in
  let k = Arg.(value & opt int 6 & info [ "k" ] ~docv:"K" ~doc:"How many of the most likely worlds to examine.") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the most likely worlds in which VALUE is (and is not) an answer of QUERY.")
    Term.(const run $ path $ query $ value $ k $ telemetry_term)

(* ---- validate / check ------------------------------------------------------------- *)

module Diag = Analyze.Diag

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Report findings as $(b,text) or $(b,json).")

(* DTD conformance, checked per possible world (bounded: beyond 10k worlds
   the check is skipped, as validate always has). Violations become D009. *)
let dtd_world_diags dtd_decl doc =
  if Dtd.declarations dtd_decl = [] || Pxml.world_count doc > 10_000. then []
  else
    List.concat_map
      (fun (_, forest) ->
        List.concat_map
          (fun w ->
            match Dtd.validate dtd_decl w with
            | Ok () -> []
            | Error vs ->
                List.map
                  (fun v ->
                    Diag.makef ~code:"D009" ~severity:Diag.Error
                      "a possible world violates the DTD: %a" Dtd.pp_violation v)
                  vs)
          forest)
      (Worlds.merged doc)

(* Findings go to stdout: they are the product of these subcommands, not
   commentary on it. *)
let render_diags format diags =
  match format with
  | `Json -> print_endline (Obs.Json.to_string ~indent:2 (Diag.list_to_json diags))
  | `Text ->
      List.iter (fun d -> Fmt.pr "%s@." (Diag.to_text d)) diags;
      (match Diag.worst diags with
      | None -> ()
      | Some w ->
          Fmt.pr "%d finding(s), worst: %s@." (List.length diags)
            (Diag.severity_to_string w))

let validate_cmd =
  let run path dtd format tele =
    with_telemetry tele @@ fun () ->
    let dtd_decl = or_die (load_dtd dtd) in
    let diags, doc =
      match load_doc path with
      | Error msg -> ([ Diag.make ~code:"D000" ~severity:Diag.Error msg ], None)
      | Ok doc -> (Analyze.Doc_lint.lint doc @ dtd_world_diags dtd_decl doc, Some doc)
    in
    render_diags format diags;
    (match (doc, format) with
    | Some doc, `Text when Diag.worst diags <> Some Diag.Error ->
        Fmt.pr "valid: %d nodes, %g world combinations@." (node_count doc)
          (world_count doc)
    | _ -> ());
    exit (Diag.exit_code diags)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check probabilistic structure (and optionally a DTD in every world). All \
          findings are reported, not just the first; the exit code is the worst \
          severity (0 ok/info, 1 warning, 2 error).")
    Term.(const run $ path $ dtd_arg $ format_arg $ telemetry_term)

let check_cmd =
  let run path queries dtd plan format tele =
    with_telemetry tele @@ fun () ->
    if path = None && queries = [] then begin
      Fmt.epr "imprecise: nothing to check: give a DOC.xml and/or --query@.";
      exit 1
    end;
    let dtd_decl = or_die (load_dtd dtd) in
    let doc_diags, summary =
      match path with
      | None -> ([], None)
      | Some path -> (
          match load_doc path with
          | Error msg -> ([ Diag.make ~code:"D000" ~severity:Diag.Error msg ], None)
          | Ok doc ->
              ( Analyze.Doc_lint.lint doc @ dtd_world_diags dtd_decl doc,
                Some (Analyze.Summary.of_doc doc) ))
    in
    let query_diags =
      List.concat_map (fun q -> Analyze.Query_check.check_string ?summary q) queries
    in
    (* --plan: the static planner's verdict per query. Syntax errors are
       already reported by check_string above, so unparseable queries are
       simply skipped here; P-code fallback reasons join the diagnostics
       (severity info, so they never affect the exit code). *)
    let plans =
      if not plan then []
      else
        let summary = Option.value summary ~default:Analyze.Summary.empty in
        List.filter_map
          (fun q ->
            match Xpath.Parser.parse q with
            | Error _ -> None
            | Ok e -> Some (q, Analyze.Plan.plan ~summary ~source:q e))
          queries
    in
    let diags =
      doc_diags @ query_diags
      @ List.concat_map (fun (_, (p : Analyze.Plan.t)) -> p.Analyze.Plan.reasons) plans
    in
    (match format with
    | `Json ->
        let base =
          match Diag.list_to_json diags with
          | Obs.Json.Obj fields -> fields
          | j -> [ ("diagnostics", j) ]
        in
        let fields =
          if not plan then base
          else
            base
            @ [
                ( "plans",
                  Obs.Json.List
                    (List.map
                       (fun (q, p) ->
                         Obs.Json.Obj
                           [
                             ("query", Obs.Json.String q);
                             ("plan", Analyze.Plan.to_json p);
                           ])
                       plans) );
              ]
        in
        print_endline (Obs.Json.to_string ~indent:2 (Obs.Json.Obj fields))
    | `Text ->
        render_diags `Text diags;
        List.iter (fun (q, p) -> Fmt.pr "plan %s:@.  %a@." q Analyze.Plan.pp p) plans);
    (if format = `Text && diags = [] && plans = [] then
       Fmt.pr "clean: no findings in %d document(s), %d query(ies)@."
         (if path = None then 0 else 1)
         (List.length queries));
    exit (Diag.exit_code diags)
  in
  let path = Arg.(value & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let queries =
    Arg.(
      value & opt_all string []
      & info [ "query"; "q" ] ~docv:"QUERY"
          ~doc:
            "Statically analyse $(docv) (repeatable). With a document, the query is \
             additionally checked against its path summary: a provably empty result is \
             an error.")
  in
  let plan =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:
            "Also print the static query plan for each --query: the chosen route \
             (direct/enumerate), cost and cardinality bounds, discharged proof \
             obligations, and P-code fallback reasons (doc/analysis.md). With a \
             document the plan is computed against its path summary; without one, \
             against the empty summary.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static analysis: lint a probabilistic document and/or analyse queries \
          against its path summary, without enumerating any worlds. Reports stable \
          diagnostic codes (doc/analysis.md); the exit code is the worst severity.")
    Term.(const run $ path $ queries $ dtd_arg $ plan $ format_arg $ telemetry_term)

(* ---- doctor ------------------------------------------------------------------------ *)

let doctor_cmd =
  let run dir strict repair migrate retries tele =
    with_telemetry tele @@ fun () ->
    let mode = if strict then Store.Strict else Store.Salvage in
    let retry =
      if retries <= 1 then None
      else
        try Some (Resilience.Retry.policy ~max_attempts:retries ())
        with Invalid_argument msg -> or_die (Error msg)
    in
    match Store.load ?retry ~mode ~quarantine:repair dir with
    | Error msg ->
        Fmt.epr "imprecise: %s@." msg;
        exit 1
    | Ok (s, report) ->
        Fmt.pr "%a" Store.pp_report report;
        Fmt.pr "recovered %d of %d document(s)@." (Store.size s)
          (List.length report.Store.docs);
        (* clean means the commit record itself checked out, not just that
           every file the load happened to find was readable *)
        let clean = Store.recovered_all report && report.Store.manifest = `Ok in
        if migrate then begin
          (* with --repair the quarantining load above already set the
             directory straight, and the binary save below re-commits the
             recovered documents — that save IS the repair, in v3 form *)
          if not (clean || repair) then begin
            Fmt.epr
              "imprecise: refusing to migrate a damaged store (run doctor --repair \
               first)@.";
            exit 1
          end;
          match Store.save ?retry ~format:Store.Binary s ~dir with
          | Ok () ->
              Fmt.pr "migrated %d document(s) to the compact binary format (v3)@."
                (Store.size s);
              exit 0
          | Error msg ->
              Fmt.epr "imprecise: migrate failed: %s@." msg;
              exit 1
        end
        else if clean then exit 0
        else if repair then begin
          match Store.save ?retry s ~dir with
          | Ok () ->
              Fmt.pr "rewrote a clean manifest for the recovered documents@.";
              exit 0
          | Error msg ->
              Fmt.epr "imprecise: repair failed: %s@." msg;
              exit 1
        end
        else exit 1
  in
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"All-or-nothing: fail on the first problem instead of salvaging around it.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Quarantine damaged and stray files (renamed to $(b,*.corrupt), bytes kept) \
             and re-save the recovered documents, so the directory carries a clean, \
             verified manifest again — also upgrading a legacy or corrupt-manifest \
             directory. Without this flag doctor only reads.")
  in
  let migrate =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:
            "Re-save a clean store in the compact binary format (v3): every document \
             becomes a checksummed $(b,.ipx) frame with deep-equal subtrees stored \
             once, committed by the usual staged manifest. Loads auto-detect the \
             format, so reads need no flag and old XML stores keep working. Refuses \
             to run on a damaged store unless combined with $(b,--repair), which \
             quarantines the damage first and migrates what was recovered.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-run a load (and the $(b,--repair) save) up to $(docv) times on \
             transient IO failures, with exponential backoff. Safe: each load \
             attempt builds a fresh store, each save attempt stages under a fresh \
             generation.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Check a store directory: verify every document against the checksummed \
          manifest and print a per-document recovery report. Exits 0 only if the \
          manifest is present and verified and every document was recovered (or \
          $(b,--repair) restored that state). $(b,--migrate) converts a clean store \
          to the compact binary format.")
    Term.(const run $ dir $ strict $ repair $ migrate $ retries $ telemetry_term)

(* ---- demo -------------------------------------------------------------------------- *)

let demo_cmd =
  let run tele =
    with_telemetry tele @@ fun () ->
    Fmt.pr "Integrating the two Figure-2 address books under 'person: nm?, tel?':@.";
    let doc =
      Result.get_ok
        (integrate ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd Data.Addressbook.source_a
           Data.Addressbook.source_b)
    in
    List.iter
      (fun (p, forest) ->
        Fmt.pr "  %.2f  %s@." p
          (String.concat "" (List.map (fun t -> Xml.Printer.to_string t) forest)))
      (Worlds.merged doc);
    Fmt.pr "@.Querying //person/tel:@.";
    Fmt.pr "%a" Answer.pp (rank doc "//person/tel");
    Fmt.pr "@.After the user denies 2222:@.";
    let doc = Result.get_ok (Feedback.prune doc ~query:"//person/tel" ~value:"2222" ~correct:false) in
    Fmt.pr "%a" Answer.pp (rank doc "//person/tel")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's Figure-2 example end to end.")
    Term.(const run $ telemetry_term)

(* ---- report ------------------------------------------------------------------------ *)

(* Offline aggregation of a JSONL event log written by [--events-out].
   An "op completion" is any event carrying a [dur_ms] field, except the
   [slow_op] markers (those duplicate an op event already emitted, so
   counting them would double-book the latency). *)
let report_cmd =
  let fstr name ev =
    match Obs.Event.field name ev with Some (Obs.Json.String s) -> Some s | _ -> None
  in
  let ffloat name ev =
    match Obs.Event.field name ev with
    | Some (Obs.Json.Float f) -> Some f
    | Some (Obs.Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let fbool name ev =
    match Obs.Event.field name ev with Some (Obs.Json.Bool b) -> Some b | _ -> None
  in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let run file top format =
    let ic =
      try open_in file
      with Sys_error msg -> die "cannot open event log: %s" msg
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    (* per-op latency aggregates, keyed by event (= op) name *)
    let lat : (string, Obs.Quantile.t * float ref * int ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let total_events = ref 0 and ops = ref 0 and errors = ref 0 in
    let degrades = Hashtbl.create 8 (* rung -> count *) in
    let trips = Hashtbl.create 8 (* reason -> count *) in
    let retries = ref 0 and giveups = ref 0 and slow_marks = ref 0 in
    let caches = Hashtbl.create 8 (* event name -> (hits, lookups) *) in
    (* slowest ops, descending by dur_ms, bounded to [top] *)
    let slowest = ref [] in
    let note_slow dur ev =
      slowest :=
        List.filteri
          (fun i _ -> i < top)
          (List.merge (fun (a, _) (b, _) -> compare b a) [ (dur, ev) ] !slowest)
    in
    let line_no = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr line_no;
         if String.trim line <> "" then begin
           let ev =
             match Obs.Json.parse line with
             | Error msg -> die "%s:%d: %s" file !line_no msg
             | Ok json -> (
                 match Obs.Event.of_json json with
                 | Error msg -> die "%s:%d: %s" file !line_no msg
                 | Ok ev -> ev)
           in
           incr total_events;
           (match ev.Obs.Event.name with
           | "degrade" ->
               bump degrades (Option.value ~default:"?" (fstr "rung" ev))
           | "budget.trip" ->
               bump trips (Option.value ~default:"?" (fstr "reason" ev))
           | "retry" -> incr retries
           | "retry.giveup" -> incr giveups
           | "slow_op" -> incr slow_marks
           | _ -> ());
           (match fbool "hit" ev with
           | Some hit ->
               let h, n =
                 Option.value ~default:(0, 0) (Hashtbl.find_opt caches ev.Obs.Event.name)
               in
               Hashtbl.replace caches ev.Obs.Event.name
                 ((h + if hit then 1 else 0), n + 1)
           | None -> ());
           match ffloat "dur_ms" ev with
           | Some dur when ev.Obs.Event.name <> "slow_op" ->
               incr ops;
               let q, mx, errs =
                 match Hashtbl.find_opt lat ev.Obs.Event.name with
                 | Some entry -> entry
                 | None ->
                     let entry = (Obs.Quantile.create (), ref 0., ref 0) in
                     Hashtbl.add lat ev.Obs.Event.name entry;
                     entry
               in
               Obs.Quantile.add q dur;
               if dur > !mx then mx := dur;
               (match fstr "outcome" ev with
               | Some o when String.length o >= 5 && String.sub o 0 5 = "error" ->
                   incr errs;
                   incr errors
               | _ -> ());
               note_slow dur ev
           | _ -> ()
         end
       done
     with End_of_file -> ());
    if !total_events = 0 then die "%s: no events (is this an --events-out log?)" file;
    let by_name tbl = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []) in
    let ops_rows =
      List.map
        (fun (name, (q, mx, errs)) ->
          (name, Obs.Quantile.count q, Obs.Quantile.estimate q 0.5,
           Obs.Quantile.estimate q 0.9, Obs.Quantile.estimate q 0.99, !mx, !errs))
        (by_name lat)
    in
    match format with
    | `Json ->
        let obj =
          Obs.Json.Obj
            [
              ("events", Obs.Json.Int !total_events);
              ("ops", Obs.Json.Int !ops);
              ("errors", Obs.Json.Int !errors);
              ( "latency_ms",
                Obs.Json.Obj
                  (List.map
                     (fun (name, n, p50, p90, p99, mx, errs) ->
                       ( name,
                         Obs.Json.Obj
                           [
                             ("n", Obs.Json.Int n); ("p50", Obs.Json.Float p50);
                             ("p90", Obs.Json.Float p90); ("p99", Obs.Json.Float p99);
                             ("max", Obs.Json.Float mx); ("errors", Obs.Json.Int errs);
                           ] ))
                     ops_rows) );
              ( "degradations",
                Obs.Json.Obj
                  (List.map (fun (r, n) -> (r, Obs.Json.Int n)) (by_name degrades)) );
              ( "budget_trips",
                Obs.Json.Obj
                  (List.map (fun (r, n) -> (r, Obs.Json.Int n)) (by_name trips)) );
              ("retries", Obs.Json.Int !retries);
              ("retry_giveups", Obs.Json.Int !giveups);
              ("slow_ops", Obs.Json.Int !slow_marks);
              ( "caches",
                Obs.Json.Obj
                  (List.map
                     (fun (name, (h, n)) ->
                       ( name,
                         Obs.Json.Obj
                           [ ("hits", Obs.Json.Int h); ("lookups", Obs.Json.Int n) ] ))
                     (by_name caches)) );
              ( "slowest",
                Obs.Json.List
                  (List.map
                     (fun (dur, ev) ->
                       Obs.Json.Obj
                         [
                           ("op", Obs.Json.String ev.Obs.Event.name);
                           ("dur_ms", Obs.Json.Float dur);
                           ("trace", Obs.Json.Int ev.Obs.Event.trace_id);
                           ( "detail",
                             Obs.Json.String (Option.value ~default:"" (fstr "detail" ev))
                           );
                         ])
                     !slowest) );
            ]
        in
        print_endline (Obs.Json.to_string ~indent:2 obj)
    | `Text ->
        Fmt.pr "%d event(s), %d op completion(s), %d error(s)@.@." !total_events !ops
          !errors;
        if ops_rows <> [] then begin
          Fmt.pr "latency (ms)          %8s %9s %9s %9s %9s %6s@." "n" "p50" "p90" "p99"
            "max" "err";
          List.iter
            (fun (name, n, p50, p90, p99, mx, errs) ->
              Fmt.pr "  %-19s %8d %9.3f %9.3f %9.3f %9.3f %6d@." name n p50 p90 p99 mx
                errs)
            ops_rows;
          Fmt.pr "@."
        end;
        let section title rows pp =
          if rows <> [] then begin
            Fmt.pr "%s@." title;
            List.iter pp rows;
            Fmt.pr "@."
          end
        in
        section "degradations (by rung degraded from)" (by_name degrades)
          (fun (r, n) -> Fmt.pr "  %-19s %8d@." r n);
        section "budget trips (by reason)" (by_name trips) (fun (r, n) ->
            Fmt.pr "  %-19s %8d@." r n);
        if !retries > 0 || !giveups > 0 then
          Fmt.pr "retries: %d (gave up %d time(s))@.@." !retries !giveups;
        section "cache effectiveness" (by_name caches) (fun (name, (h, n)) ->
            Fmt.pr "  %-19s %8d/%d hits (%.0f%%)@." name h n
              (if n = 0 then 0. else 100. *. float_of_int h /. float_of_int n));
        section
          (Fmt.str "slowest ops (top %d)" top)
          !slowest
          (fun (dur, ev) ->
            Fmt.pr "  %9.3f ms  %-19s trace=%d  %s@." dur ev.Obs.Event.name
              ev.Obs.Event.trace_id
              (Option.value ~default:"" (fstr "detail" ev)))
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EVENTS.jsonl" ~doc:"JSONL event log written by $(b,--events-out).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"How many of the slowest ops to list.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate a flight-recorder event log: per-op latency quantiles, degradation \
          and budget-trip rates, cache effectiveness, and the slowest operations.")
    Term.(const run $ file $ top $ format_arg)

let main =
  Cmd.group
    (Cmd.info "imprecise" ~version:"1.0.0"
       ~doc:"Good-is-good-enough probabilistic XML data integration (IMPrECISE, ICDE 2008).")
    [
      integrate_cmd; stats_cmd; query_cmd; worlds_cmd; explain_cmd; feedback_cmd;
      validate_cmd; check_cmd; rules_cmd; doctor_cmd; demo_cmd; report_cmd;
    ]

let () = exit (Cmd.eval main)
