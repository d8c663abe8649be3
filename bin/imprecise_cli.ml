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

(* Bodies return their exit code; [die] is their one error path. *)
exception Die of string

let die fmt = Fmt.kstr (fun msg -> raise (Die msg)) fmt

let or_die = function Ok v -> v | Error msg -> raise (Die msg)

(* [valid f] is [f ()], with its [Invalid_argument] a [die]. *)
let valid f = try f () with Invalid_argument msg -> raise (Die msg)

(* A document file is either plain XML or a pxml-encoded probabilistic
   document (recognised by its p:prob root). *)
let load_doc path : (Pxml.doc, string) result =
  match Xml.Parser.parse_file path with
  | Error e -> Error (Fmt.str "%s: %s" path (Xml.Parser.error_to_string e))
  | Ok tree ->
      if Tree.name tree = Some Codec.prob_tag then Codec.decode tree
      else Ok (Pxml.doc_of_tree tree)

let load_certain path =
  match Xml.Parser.parse_file path with
  | Ok tree -> tree
  | Error e -> die "%s: %s" path (Xml.Parser.error_to_string e)

let rules_conv =
  let parse = function
    | "none" | "generic" -> Ok Rulesets.generic
    | "full" -> Ok Rulesets.full
    | s ->
        let flags = String.split_on_char ',' s in
        let known = [ "genre"; "title"; "year"; "director" ] in
        let bad = List.filter (fun f -> not (List.mem f known)) flags in
        if bad <> [] then
          Error
            (`Msg
              (Fmt.str "unknown rule(s) %s; expected none, full, or a comma-list of %s"
                 (String.concat ", " bad) (String.concat ", " known)))
        else
          let has f = List.mem f flags in
          Ok
            (Rulesets.movie ~genre:(has "genre") ~title:(has "title") ~year:(has "year")
               ~director:(has "director") ())
  in
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
  | None -> Dtd.empty
  | Some path ->
      or_die
        (Result.map_error (Fmt.str "%s: %s" path)
           (Dtd.of_string (In_channel.with_open_bin path In_channel.input_all)))

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

(* The positionals DOC, QUERY and VALUE, shared by every command that
   reads a document (check takes its DOC as optional). *)
let doc_pos = Arg.(pos 0 (some file) None (info [] ~docv:"DOC.xml"))

let doc_arg = Arg.required doc_pos

let query_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")

let value_arg = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE")

(* One line per world: its probability, then its forest as XML. *)
let print_worlds ?(indent = "") ?(digits = 4) worlds =
  List.iter
    (fun (p, forest) ->
      Fmt.pr "%s%.*f  %s@." indent digits p
        (String.concat "" (List.map (fun t -> Xml.Printer.to_string t) forest)))
    worlds

(* ---- telemetry -------------------------------------------------------------- *)

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

(* The body runs inside, so the report runs once, after it, whatever its
   outcome. Tracing is installed for any of the three outputs: the event
   stream wants span ids on its events even when nobody asked for the span
   tree itself. *)
let with_telemetry trace trace_out events_out body =
  let run () = try body () with Die msg -> Fmt.epr "imprecise: %s@." msg; 1 in
  if not (trace || trace_out <> None || events_out <> None) then run ()
  else begin
    let sink, roots = Obs.Trace.collector () in
    Obs.Trace.install sink;
    let events_oc =
      Option.map
        (fun path ->
          let oc = open_out path in
          Obs.Event.enable ~sink:(Obs.Event.jsonl_sink oc) ();
          oc)
        events_out
    in
    let report () =
      Obs.Trace.uninstall ();
      let spans = roots () in
      Option.iter
        (fun oc ->
          Obs.Event.disable ();
          close_out oc)
        events_oc;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Obs.Json.to_string (Obs.Trace.to_chrome spans));
              output_char oc '\n'))
        trace_out;
      if trace then begin
        Fmt.epr "--- trace spans ---@.";
        List.iter (fun s -> Fmt.epr "%s" (Obs.Trace.to_text s)) spans;
        Fmt.epr "--- metrics ---@.%s@?" (Obs.Metrics.to_text (Obs.Metrics.snapshot ()))
      end
    in
    Fun.protect ~finally:report run
  end

(* The one command constructor; [body] returns the exit code. [report]
   only reads a log, so it is not [traced] and has no telemetry flags. *)
let command ?(traced = true) name ~doc body =
  let telemetry =
    if traced then Term.(const with_telemetry $ trace_arg $ trace_out_arg $ events_out_arg)
    else Term.const (with_telemetry false None None)
  in
  Cmd.v (Cmd.info name ~doc) Term.(telemetry $ body)

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

(* Created when the body asks, so the deadline starts with the heavy work. *)
let budget_term =
  let budget_of timeout_ms max_worlds () =
    match (timeout_ms, max_worlds) with
    | None, None -> None
    | _ -> Some (valid (Resilience.Budget.create ?timeout_ms ?max_worlds))
  in
  Term.(const budget_of $ timeout_arg $ max_worlds_arg)

(* ---- integration inputs: rules, DTD, blocker ------------------------------------ *)

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

let infer_dtd_arg =
  Arg.(
    value & flag
    & info [ "infer-dtd" ]
        ~doc:
          "Derive cardinality knowledge from the sources themselves: child tags that \
           never repeat under a parent are treated as at-most-one. Combined with --dtd \
           if both are given (explicit declarations win).")

let factorize_arg =
  Arg.(
    value & flag
    & info [ "factorize" ]
        ~doc:"Store independent clusters locally (the compact, factorised representation).")

type integration = {
  rules : Rulesets.t;
  dtd : Dtd.t;
  factorize : bool;
  blocker : Blocking.spec;
}

(* What integrate and stats share: resolved against the loaded sources,
   in the body, so a bad DTD file or blocker is a [die] there. *)
let integration_term =
  let resolve rules dtd_file infer factorize name field threshold window q docs =
    let explicit = load_dtd dtd_file in
    let dtd =
      if not infer then explicit
      else
        (* explicit declarations override inferred ones *)
        List.fold_left
          (fun d (p, c, o) -> Dtd.declare d ~parent:p ~child:c o)
          (Dtd.infer docs) (Dtd.declarations explicit)
    in
    let blocker = or_die (Blocking.of_string ?field ~q ~threshold ~window name) in
    { rules; dtd; factorize; blocker }
  in
  Term.(
    const resolve $ rules_arg $ dtd_arg $ infer_dtd_arg $ factorize_arg $ blocker_name_arg
    $ block_field_arg $ block_threshold_arg $ block_window_arg $ block_q_arg)

(* ---- integrate -------------------------------------------------------------- *)

let integrate_cmd =
  let run inputs integration jobs budget output () =
    if List.compare_length_with inputs 2 < 0 then
      die "integrate needs at least two documents";
    let docs = List.map load_certain inputs in
    let { rules; dtd; factorize; blocker } = integration docs in
    match integrate_many ~rules ~dtd ~factorize ~blocker ~jobs ?budget:(budget ()) docs with
    | Error e -> die "%a" Integrate.pp_error e
    | Ok doc ->
        Fmt.pr "nodes: %d  world combinations: %g@." (node_count doc) (world_count doc);
        write_output doc output;
        0
  in
  let inputs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SOURCE.xml")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Score each candidate grid with $(docv) OCaml domains. Any $(docv) produces \
             a bit-identical result to sequential integration (see doc/integrate.md).")
  in
  command "integrate"
    ~doc:
      "Probabilistically integrate two or more XML documents. The first two are \
       integrated directly; each further document is folded into the probabilistic \
       result structurally, enumerating only the choice points it touches (no limit \
       on the prior world count), reusing one Oracle decision cache across the \
       whole batch."
    Term.(const run $ inputs $ integration_term $ jobs $ budget_term $ output_arg)

(* ---- stats -------------------------------------------------------------------- *)

let stats_cmd =
  let run left right integration budget () =
    let a = load_certain left and b = load_certain right in
    let { rules; dtd; factorize; blocker } = integration [ a; b ] in
    match integration_stats ~rules ~dtd ~factorize ~blocker ?budget:(budget ()) a b with
    | Error e -> die "%a" Integrate.pp_error e
    | Ok { Integrate.nodes; worlds; trace = t } ->
        Fmt.pr "rules: %s@." rules.Rulesets.name;
        Fmt.pr "blocker: %s@." (Blocking.describe blocker);
        Fmt.pr "nodes: %.0f@." nodes;
        Fmt.pr "world combinations: %g@." worlds;
        Fmt.pr "pairs generated: %d@." t.Integrate.pairs_generated;
        Fmt.pr "pairs compared: %d (blocked: %d)@." t.pairs_compared t.pairs_blocked;
        Fmt.pr "undecided pairs: %d@." t.unsure_pairs;
        Fmt.pr "forced matches: %d@." t.same_pairs;
        Fmt.pr "clusters: %d (largest enumeration: %d)@." t.cluster_count
          t.largest_enumeration;
        let count name = Obs.Metrics.count (Obs.Metrics.counter name) in
        Fmt.pr "resilience: retries=%d giveups=%d deadline_exceeded=%d degraded=%d@."
          (count "resilience.retries") (count "resilience.retry_giveups")
          (count "resilience.deadline_exceeded") (count "pquery.degraded");
        0
  in
  let left = Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT.xml") in
  let right = Arg.(required & pos 1 (some file) None & info [] ~docv:"RIGHT.xml") in
  command "stats"
    ~doc:
      "Compute the size of an integration without materialising it (works far beyond \
       what $(b,integrate) can build)."
    Term.(const run $ left $ right $ integration_term $ budget_term)

(* ---- rules ---------------------------------------------------------------------- *)

let rules_cmd =
  let run () =
    List.iter
      (fun (r : Rulesets.t) ->
        Fmt.pr "%-22s %s@." r.Rulesets.name r.Rulesets.description;
        List.iter (fun n -> Fmt.pr "    - %s@." n) (Oracle.rule_names r.Rulesets.oracle))
      (Rulesets.table1 @ [ Rulesets.full ]);
    0
  in
  command "rules" ~doc:"List the built-in Oracle rule presets and their rules."
    Term.(const run)

(* ---- query --------------------------------------------------------------------- *)

(* [answering f] is [f ()], a query that cannot be answered or parsed a [die] *)
let answering f =
  try f () with
  | Pquery.Cannot_answer msg -> die "cannot answer: %s" msg
  | Failure msg -> die "%s" msg

let query_cmd =
  let run path query strategy samples seed top_k budget () =
    let doc = or_die (load_doc path) in
    let strategy, name =
      match strategy with
      | `Auto -> (Pquery.Auto, "auto")
      | `Direct -> (Pquery.Direct_only, "direct")
      | `Enumerate -> (Pquery.Enumerate_only, "enumerate")
      | `Sample -> (Pquery.Sample { n = samples; seed }, "sample")
    in
    let budget = budget () in
    (* With a budget and the default strategy, answer through the
       degradation ladder: always an answer, graded by how approximate.
       An explicit strategy is honoured instead — there a blown budget is
       a clean error, not a silent strategy change. *)
    match
      answering @@ fun () ->
      match (budget, strategy) with
      | Some _, Pquery.Auto ->
          let { Resilience.Degrade.value; grade } =
            Pquery.rank_graded ?budget ?top_k doc query
          in
          if not (Resilience.Degrade.is_exact grade) then
            Fmt.epr "imprecise: budget exhausted, degraded answer: %a@."
              Resilience.Degrade.pp_grade grade;
          value
      | _ -> Pquery.rank ?budget ~strategy ?top_k doc query
    with
    | answers ->
        Fmt.pr "%a@?" Answer.pp answers;
        0
    | exception Resilience.Budget.Exceeded reason ->
        die "budget exceeded (%s) under --strategy %s; drop --strategy to degrade gracefully"
          (Resilience.Budget.reason_to_string reason)
          name
  in
  let strategy =
    let names = [ ("auto", `Auto); ("direct", `Direct); ("enumerate", `Enumerate); ("sample", `Sample) ] in
    Arg.(
      value & opt (enum names) `Auto
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"auto, direct, enumerate, or sample (Monte-Carlo estimate).")
  in
  let samples =
    Arg.(value & opt int 10_000 & info [ "samples" ] ~docv:"N" ~doc:"Sample count for --strategy sample.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for --strategy sample.") in
  let top_k =
    Arg.(
      value & opt (some int) None
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Report only the $(docv) most likely answers, stopping the enumeration \
             early once their order is provably final.")
  in
  command "query"
    ~doc:
      "Query a (probabilistic or plain) document; answers are ranked by the \
       probability that they belong to the result."
    Term.(
      const run $ doc_arg $ query_arg $ strategy $ samples $ seed $ top_k $ budget_term)

(* ---- worlds -------------------------------------------------------------------- *)

let worlds_cmd =
  let run path limit top () =
    let doc = or_die (load_doc path) in
    (match top with
    | Some k ->
        (* k-best works at any scale, no enumeration *)
        print_worlds (Worlds.most_likely ~k doc)
    | None ->
        let combos = world_count doc in
        if combos > float_of_int limit then
          die "%g world combinations exceed --limit %d (hint: --top K works at any scale)"
            combos limit;
        print_worlds (Worlds.merged doc));
    0
  in
  let limit =
    Arg.(value & opt int 10_000 & info [ "limit" ] ~docv:"N" ~doc:"Refuse to enumerate more than $(docv) combinations.")
  in
  let top =
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc:"Only the $(docv) most likely worlds (works on documents of any size).")
  in
  command "worlds" ~doc:"Enumerate the possible worlds of a probabilistic document."
    Term.(const run $ doc_arg $ limit $ top)

(* ---- feedback -------------------------------------------------------------------- *)

let feedback_cmd =
  let run path query value incorrect exact output () =
    let doc = or_die (load_doc path) in
    let correct = not incorrect in
    let result =
      if exact then Feedback.assert_answer doc ~query ~value ~correct
      else Feedback.prune doc ~query ~value ~correct
    in
    match result with
    | Error e -> die "%a" Feedback.pp_error e
    | Ok doc' ->
        Fmt.pr "before: %d nodes, %g worlds@." (node_count doc) (world_count doc);
        Fmt.pr "after : %d nodes, %g worlds@." (node_count doc') (world_count doc');
        write_output doc' output;
        0
  in
  let incorrect =
    Arg.(value & flag & info [ "incorrect" ] ~doc:"Assert the value is NOT a correct answer (default: it is).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Exact Bayesian conditioning (the full posterior) instead of in-place pruning. Queries in the direct fragment are conditioned on the document's structure, without enumerating worlds; other queries enumerate them.")
  in
  command "feedback"
    ~doc:"Assert that VALUE is a correct/incorrect answer of QUERY and remove the data of inconsistent worlds."
    Term.(const run $ doc_arg $ query_arg $ value_arg $ incorrect $ exact $ output_arg)

(* ---- explain --------------------------------------------------------------------- *)

let explain_cmd =
  let run path query value k () =
    let doc = or_die (load_doc path) in
    let e = answering (fun () -> Pquery.explain ~k doc query value) in
    Fmt.pr "P(%S in answer) = %.3f@." value e.Pquery.prob;
    Fmt.pr "examined the %d most likely worlds (%.1f%% of the probability mass)@."
      (List.length e.Pquery.supporting + List.length e.Pquery.opposing)
      (100. *. e.Pquery.covered);
    Fmt.pr "supporting worlds:@.";
    print_worlds ~indent:"  " e.Pquery.supporting;
    Fmt.pr "opposing worlds:@.";
    print_worlds ~indent:"  " e.Pquery.opposing;
    0
  in
  let k = Arg.(value & opt int 6 & info [ "k" ] ~docv:"K" ~doc:"How many of the most likely worlds to examine.") in
  command "explain"
    ~doc:"Show the most likely worlds in which VALUE is (and is not) an answer of QUERY."
    Term.(const run $ doc_arg $ query_arg $ value_arg $ k)

(* ---- check ----------------------------------------------------------------------- *)

module Diag = Analyze.Diag

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Report findings as $(b,text) or $(b,json).")

(* DTD conformance, checked per possible world (bounded: beyond 10k worlds
   the check is skipped). Violations become D009. *)
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

let check_cmd =
  let run path queries dtd plan format () =
    if path = None && queries = [] then
      die "nothing to check: give a DOC.xml and/or --query";
    let dtd_decl = load_dtd dtd in
    let doc, doc_diags =
      match Option.map load_doc path with
      | None -> (None, [])
      | Some (Error msg) -> (None, [ Diag.make ~code:"D000" ~severity:Diag.Error msg ])
      | Some (Ok doc) -> (Some doc, Analyze.Doc_lint.lint doc @ dtd_world_diags dtd_decl doc)
    in
    let summary = Option.map Analyze.Summary.of_doc doc in
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
    (* Findings go to stdout: they are the product of this subcommand, not
       commentary on it. *)
    (match format with
    | `Json ->
        let fields =
          match Diag.list_to_json diags with
          | Obs.Json.Obj fields -> fields
          | j -> [ ("diagnostics", j) ]
        in
        let plan_json (q, p) =
          Obs.Json.Obj [ ("query", Obs.Json.String q); ("plan", Analyze.Plan.to_json p) ]
        in
        let fields =
          if plan then fields @ [ ("plans", Obs.Json.List (List.map plan_json plans)) ]
          else fields
        in
        print_endline (Obs.Json.to_string ~indent:2 (Obs.Json.Obj fields))
    | `Text ->
        List.iter (fun d -> Fmt.pr "%s@." (Diag.to_text d)) diags;
        (match Diag.worst diags with
        | None -> ()
        | Some w ->
            Fmt.pr "%d finding(s), worst: %s@." (List.length diags)
              (Diag.severity_to_string w));
        (match doc with
        | Some doc when Diag.worst doc_diags <> Some Diag.Error ->
            Fmt.pr "valid: %d nodes, %g world combinations@." (node_count doc)
              (world_count doc)
        | _ -> ());
        List.iter (fun (q, p) -> Fmt.pr "plan %s:@.  %a@." q Analyze.Plan.pp p) plans;
        if diags = [] && plans = [] then
          Fmt.pr "clean: no findings in %d document(s), %d query(ies)@."
            (if path = None then 0 else 1)
            (List.length queries));
    Diag.exit_code diags
  in
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
  command "check"
    ~doc:
      "Static analysis: lint a probabilistic document (and optionally a DTD in every \
       world) and/or analyse queries against its path summary, without enumerating \
       any worlds. All findings are reported, not just the first, with stable \
       diagnostic codes (doc/analysis.md); a document without errors also gets its \
       size. The exit code is the worst severity (0 ok/info, 1 warning, 2 error)."
    Term.(const run $ Arg.value doc_pos $ queries $ dtd_arg $ plan $ format_arg)

(* ---- doctor ------------------------------------------------------------------------ *)

let doctor_cmd =
  let run dir strict repair retries () =
    let mode = if strict then Store.Strict else Store.Salvage in
    let retry =
      if retries <= 1 then None
      else Some (valid (Resilience.Retry.policy ~max_attempts:retries))
    in
    let s, report = or_die (Store.load ?retry ~mode ~quarantine:repair dir) in
    Fmt.pr "%a" Store.pp_report report;
    Fmt.pr "recovered %d of %d document(s)@." (Store.size s)
      (List.length report.Store.docs);
    if repair then begin
      (* the quarantining load above already set the directory straight;
         this save re-commits the recovered documents as .ipx under a fresh
         manifest (so documents an earlier version stored as XML become
         .ipx frames too) *)
      match Store.save ?retry s ~dir with
      | Ok () ->
          Fmt.pr "rewrote a clean manifest for the recovered documents@.";
          0
      | Error msg -> die "repair failed: %s" msg
    end
    else if
      (* clean means the commit record itself checked out, not just that
         every file the load happened to find was readable *)
      Store.recovered_all report && report.Store.manifest = `Ok
    then 0
    else 1
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
             directory. Every save writes the compact binary format (v3), so documents \
             an earlier version stored as XML become checksummed $(b,.ipx) frames. \
             Without this flag doctor only reads.")
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
  command "doctor"
    ~doc:
      "Check a store directory: verify every document against the checksummed \
       manifest and print a per-document recovery report. Exits 0 only if the \
       manifest is present and verified and every document was recovered (or \
       $(b,--repair) restored that state)."
    Term.(const run $ dir $ strict $ repair $ retries)

(* ---- demo -------------------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    Fmt.pr "Integrating the two Figure-2 address books under 'person: nm?, tel?':@.";
    let doc =
      Result.get_ok
        (integrate ~rules:Rulesets.generic ~dtd:Data.Addressbook.dtd Data.Addressbook.source_a
           Data.Addressbook.source_b)
    in
    print_worlds ~indent:"  " ~digits:2 (Worlds.merged doc);
    Fmt.pr "@.Querying //person/tel:@.";
    Fmt.pr "%a" Answer.pp (rank doc "//person/tel");
    Fmt.pr "@.After the user denies 2222:@.";
    let doc = Result.get_ok (Feedback.prune doc ~query:"//person/tel" ~value:"2222" ~correct:false) in
    Fmt.pr "%a" Answer.pp (rank doc "//person/tel");
    0
  in
  command "demo" ~doc:"Run the paper's Figure-2 example end to end." Term.(const run)

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
  let read file =
    let ic =
      try open_in file
      with Sys_error msg -> die "cannot open event log: %s" msg
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go line_no acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line when String.trim line = "" -> go (line_no + 1) acc
      | line -> (
          match Result.bind (Obs.Json.parse line) Obs.Event.of_json with
          | Ok ev -> go (line_no + 1) (ev :: acc)
          | Error msg -> die "%s:%d: %s" file line_no msg)
    in
    go 1 []
  in
  (* [(key, v)] pairs grouped by key, keys sorted, each group folded by [f] *)
  let group f pairs =
    List.map
      (fun k -> (k, f (List.filter_map (fun (k', v) -> if k = k' then Some v else None) pairs)))
      (List.sort_uniq compare (List.map fst pairs))
  in
  let counts rows = Obs.Json.Obj (List.map (fun (r, n) -> (r, Obs.Json.Int n)) rows) in
  let run file top format () =
    let events = read file in
    if events = [] then die "%s: no events (is this an --events-out log?)" file;
    (* the one aggregate both renderings read *)
    let named name ev = ev.Obs.Event.name = name in
    let count name = List.length (List.filter (named name) events) in
    (* [name] events by their [key] field, e.g. degradations by rung *)
    let tally name key =
      group List.length
        (List.filter_map
           (fun ev ->
             if named name ev then Some (Option.value ~default:"?" (fstr key ev), ())
             else None)
           events)
    in
    let ops =
      List.filter_map
        (fun ev ->
          match ffloat "dur_ms" ev with
          | Some dur when not (named "slow_op" ev) -> Some (ev.Obs.Event.name, (dur, ev))
          | _ -> None)
        events
    in
    let is_error (_, ev) =
      match fstr "outcome" ev with
      | Some o -> String.starts_with ~prefix:"error" o
      | None -> false
    in
    let ops_rows =
      group
        (fun ds ->
          let q = Obs.Quantile.create () in
          List.iter (fun (d, _) -> Obs.Quantile.add q d) ds;
          ( List.length ds,
            Obs.Quantile.estimate q 0.5,
            Obs.Quantile.estimate q 0.9,
            Obs.Quantile.estimate q 0.99,
            List.fold_left (fun mx (d, _) -> if d > mx then d else mx) 0. ds,
            List.length (List.filter is_error ds) ))
        ops
    in
    let errors = List.length (List.filter (fun (_, op) -> is_error op) ops) in
    let degrades = tally "degrade" "rung" and trips = tally "budget.trip" "reason" in
    let retries = count "retry" and giveups = count "retry.giveup" in
    let caches =
      group
        (fun hits -> (List.length (List.filter Fun.id hits), List.length hits))
        (List.filter_map
           (fun ev ->
             match Obs.Event.field "hit" ev with
             | Some (Obs.Json.Bool hit) -> Some (ev.Obs.Event.name, hit)
             | _ -> None)
           events)
    in
    (* the [top] slowest, the later of two equally slow ops first *)
    let slowest =
      List.filteri
        (fun i _ -> i < top)
        (List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev_map snd ops))
    in
    let detail ev = Option.value ~default:"" (fstr "detail" ev) in
    (match format with
    | `Json ->
        let obj =
          Obs.Json.Obj
            [
              ("events", Obs.Json.Int (List.length events));
              ("ops", Obs.Json.Int (List.length ops));
              ("errors", Obs.Json.Int errors);
              ( "latency_ms",
                Obs.Json.Obj
                  (List.map
                     (fun (name, (n, p50, p90, p99, mx, errs)) ->
                       ( name,
                         Obs.Json.Obj
                           [
                             ("n", Obs.Json.Int n); ("p50", Obs.Json.Float p50);
                             ("p90", Obs.Json.Float p90); ("p99", Obs.Json.Float p99);
                             ("max", Obs.Json.Float mx); ("errors", Obs.Json.Int errs);
                           ] ))
                     ops_rows) );
              ("degradations", counts degrades);
              ("budget_trips", counts trips);
              ("retries", Obs.Json.Int retries);
              ("retry_giveups", Obs.Json.Int giveups);
              ("slow_ops", Obs.Json.Int (count "slow_op"));
              ( "caches",
                Obs.Json.Obj
                  (List.map
                     (fun (name, (h, n)) ->
                       ( name,
                         Obs.Json.Obj
                           [ ("hits", Obs.Json.Int h); ("lookups", Obs.Json.Int n) ] ))
                     caches) );
              ( "slowest",
                Obs.Json.List
                  (List.map
                     (fun (dur, ev) ->
                       Obs.Json.Obj
                         [
                           ("op", Obs.Json.String ev.Obs.Event.name);
                           ("dur_ms", Obs.Json.Float dur);
                           ("trace", Obs.Json.Int ev.Obs.Event.trace_id);
                           ("detail", Obs.Json.String (detail ev));
                         ])
                     slowest) );
            ]
        in
        print_endline (Obs.Json.to_string ~indent:2 obj)
    | `Text ->
        Fmt.pr "%d event(s), %d op completion(s), %d error(s)@.@." (List.length events)
          (List.length ops) errors;
        let section title rows pp =
          if rows <> [] then begin
            Fmt.pr "%s@." title;
            List.iter pp rows;
            Fmt.pr "@."
          end
        in
        let count (r, n) = Fmt.pr "  %-19s %8d@." r n in
        section
          (Fmt.str "latency (ms)          %8s %9s %9s %9s %9s %6s" "n" "p50" "p90" "p99"
             "max" "err")
          ops_rows
          (fun (name, (n, p50, p90, p99, mx, errs)) ->
            Fmt.pr "  %-19s %8d %9.3f %9.3f %9.3f %9.3f %6d@." name n p50 p90 p99 mx errs);
        section "degradations (by rung degraded from)" degrades count;
        section "budget trips (by reason)" trips count;
        if retries > 0 || giveups > 0 then
          Fmt.pr "retries: %d (gave up %d time(s))@.@." retries giveups;
        section "cache effectiveness" caches (fun (name, (h, n)) ->
            Fmt.pr "  %-19s %8d/%d hits (%.0f%%)@." name h n
              (if n = 0 then 0. else 100. *. float_of_int h /. float_of_int n));
        section
          (Fmt.str "slowest ops (top %d)" top)
          slowest
          (fun (dur, ev) ->
            Fmt.pr "  %9.3f ms  %-19s trace=%d  %s@." dur ev.Obs.Event.name
              ev.Obs.Event.trace_id (detail ev)));
    0
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
  command ~traced:false "report"
    ~doc:
      "Aggregate a flight-recorder event log: per-op latency quantiles, degradation \
       and budget-trip rates, cache effectiveness, and the slowest operations."
    Term.(const run $ file $ top $ format_arg)

let main =
  Cmd.group
    (Cmd.info "imprecise" ~version:"1.0.0"
       ~doc:"Good-is-good-enough probabilistic XML data integration (IMPrECISE, ICDE 2008).")
    [
      integrate_cmd; stats_cmd; query_cmd; worlds_cmd; explain_cmd; feedback_cmd;
      check_cmd; rules_cmd; doctor_cmd; demo_cmd; report_cmd;
    ]

let () = exit (Cmd.eval' main)
