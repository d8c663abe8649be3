(* Validates a bench snapshot written by `main.exe <exp> --json FILE`: the
   file must parse as JSON, declare the expected schema, contain every
   experiment named on the command line, and carry the core metric keys the
   instrumented libraries promise (doc/observability.md has the catalogue).

     check_snapshot.exe FILE EXPERIMENT [EXPERIMENT ...]

   This is what `dune build @bench-smoke` runs. *)

module Obs = Imprecise.Obs

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("check_snapshot: " ^ msg);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let member ~ctx name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> fail "%s: missing %S" ctx name

let keys ~ctx = function
  | Obs.Json.Obj kvs -> List.map fst kvs
  | _ -> fail "%s: expected an object" ctx

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Counters every integration experiment must report (non-zero where the
   instrumentation cannot plausibly be asleep), plus registered-but-possibly
   -zero catalogue entries like the store's. *)
let required_counters =
  [ "integrate.pairs_generated"; "integrate.pairs_compared"; "oracle.decisions";
    "store.bytes_written";
    "pquery.worlds_enumerated"; "pquery.static_pruned"; "pquery.degraded";
    "resilience.retries"; "resilience.deadline_exceeded"; "obs.events_dropped";
    "obs.ops_recorded" ]

let required_histograms =
  [ "integrate.nodes_produced"; "integrate.worlds_produced"; "pquery.latency" ]

let check_experiment ~file experiments name =
  let e =
    match
      List.find_opt
        (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String name))
        experiments
    with
    | Some e -> e
    | None -> fail "experiment %S missing from %s" name file
  in
  let ctx = Printf.sprintf "%s:%s" file name in
  (match member ~ctx "wall_s" e with
  | Obs.Json.Float w when w >= 0. -> ()
  | Obs.Json.Int w when w >= 0 -> ()
  | _ -> fail "%s: wall_s is not a non-negative number" ctx);
  let metrics = member ~ctx "metrics" e in
  let counters = member ~ctx "counters" metrics in
  let ckeys = keys ~ctx:(ctx ^ ".counters") counters in
  let hkeys = keys ~ctx:(ctx ^ ".histograms") (member ~ctx "histograms" metrics) in
  List.iter
    (fun k -> if not (List.mem k ckeys) then fail "%s: counter %S missing" ctx k)
    required_counters;
  List.iter
    (fun k -> if not (List.mem k hkeys) then fail "%s: histogram %S missing" ctx k)
    required_histograms;
  if not (List.exists (starts_with ~prefix:"oracle.rule_fired.") ckeys) then
    fail "%s: no oracle.rule_fired.* counters registered" ctx;
  let positive counter =
    match Obs.Json.member counter counters with
    | Some (Obs.Json.Int n) when n > 0 -> ()
    | _ -> fail "%s: %s is zero — instrumentation asleep?" ctx counter
  in
  positive "integrate.pairs_compared";
  (* every generated pair was either compared or skipped by a blocker *)
  (match
     List.map
       (fun c -> Obs.Json.member c counters)
       [ "integrate.pairs_generated"; "integrate.pairs_compared"; "integrate.pairs_blocked" ]
   with
  | [ Some (Obs.Json.Int g); Some (Obs.Json.Int c); Some (Obs.Json.Int b) ] ->
      if g <> c + b then
        fail "%s: pairs_generated %d <> pairs_compared %d + pairs_blocked %d" ctx g c b
  | _ -> ());
  (* the querying experiments must actually have enumerated worlds, and the
     cache experiment must actually have hit its cache *)
  if starts_with ~prefix:"pquery_" name then positive "pquery.worlds_enumerated";
  if name = "pquery_cached" then positive "pquery.cache.hit";
  (* the prune experiment must actually have pruned something *)
  if name = "analyze_prune" then positive "pquery.static_pruned";
  (* the parallel integration experiment must actually have fanned out,
     and the incremental batch must actually have reused cached verdicts *)
  if name = "integrate_parallel" then positive "integrate.parallel_runs";
  if name = "integrate_incremental" then positive "oracle.cache.hit";
  (* the N-source fold must have completed a step from past the 1000 prior
     combinations the enumerating fold refused *)
  if name = "integrate_fold_many" then positive "bench.fold_past_old_limit";
  (* the blocking experiment must have skipped real work: an index pruned
     pairs, and across the whole run at least 4x fewer pairs were compared
     than the grids generated (the 10k/100k sources dominate the tally) *)
  if name = "integrate_blocking" then begin
    positive "integrate.pairs_blocked";
    let count counter =
      match Obs.Json.member counter counters with
      | Some (Obs.Json.Int n) -> n
      | _ -> fail "%s: counter %S is not an integer" ctx counter
    in
    let generated = count "integrate.pairs_generated" in
    let compared = count "integrate.pairs_compared" in
    if compared * 4 > generated then
      fail "%s: blocking compared %d of %d generated pairs (< 4x reduction)" ctx
        compared generated
  end;
  (* the degradation experiment must actually have degraded an answer and
     tripped its deadline *)
  if name = "pquery_degraded" then begin
    positive "pquery.degraded";
    positive "resilience.deadline_exceeded"
  end;
  (* the planner experiment must have routed most of the widened corpus
     past enumeration, and the planner itself must have been timed *)
  if name = "pquery_direct_wide" then begin
    positive "pquery.path.direct";
    let count counter =
      match Obs.Json.member counter counters with
      | Some (Obs.Json.Int n) -> n
      | _ -> fail "%s: counter %S is not an integer" ctx counter
    in
    if count "pquery.path.direct" <= count "pquery.path.enumerate" then
      fail "%s: direct routes (%d) do not dominate enumeration fallbacks (%d)" ctx
        (count "pquery.path.direct")
        (count "pquery.path.enumerate");
    let h =
      match Obs.Json.member "analyze.plan" (member ~ctx "histograms" metrics) with
      | Some h -> h
      | None -> fail "%s: histogram \"analyze.plan\" missing" ctx
    in
    match Obs.Json.member "n" h with
    | Some (Obs.Json.Int n) when n > 0 -> ()
    | _ -> fail "%s: analyze.plan has no observations — planner untimed?" ctx
  end;
  (* every feedback assertion of the structural-feedback experiment must
     have gone direct, and each posterior must give the asserted value
     probability 1 (or 0) to within 1e-9 *)
  if name = "feedback_direct" then begin
    positive "feedback.path.direct";
    positive "bench.feedback_posteriors_checked";
    let count counter =
      match Obs.Json.member counter counters with
      | Some (Obs.Json.Int n) -> n
      | _ -> fail "%s: counter %S is not an integer" ctx counter
    in
    if count "feedback.path.enumerate" <> 0 then
      fail "%s: %d feedback call(s) enumerated worlds" ctx (count "feedback.path.enumerate");
    if count "bench.feedback_posteriors_exact" <> count "bench.feedback_posteriors_checked" then
      fail "%s: %d of %d posteriors miss the asserted probability by more than 1e-9" ctx
        (count "bench.feedback_posteriors_checked" - count "bench.feedback_posteriors_exact")
        (count "bench.feedback_posteriors_checked")
  end;
  (* the binary-store experiment must actually have written binary frames,
     and decoding them must beat parsing the equivalent XML by >= 2x at the
     median (the whole point of the v3 format) *)
  if name = "store_binary_roundtrip" then begin
    positive "store.binary_bytes";
    let p50 hname =
      let h =
        match Obs.Json.member hname (member ~ctx "histograms" metrics) with
        | Some h -> h
        | None -> fail "%s: histogram %S missing" ctx hname
      in
      match Obs.Json.member "p50" h with
      | Some (Obs.Json.Float p) when p > 0. -> p
      | Some (Obs.Json.Int p) when p > 0 -> float_of_int p
      | _ -> fail "%s: %s has no positive p50 — decode untimed?" ctx hname
    in
    let xml = p50 "store.parse_xml" and bin = p50 "store.parse_binary" in
    if bin *. 2. > xml then
      fail "%s: binary decode p50 %.3fms not 2x faster than xml parse p50 %.3fms"
        ctx bin xml
  end;
  (* the event ring must never have overflowed during a bench run *)
  (match Obs.Json.member "obs.events_dropped" counters with
  | Some (Obs.Json.Int 0) -> ()
  | Some j -> fail "%s: obs.events_dropped = %s (ring overflowed)" ctx (Obs.Json.to_string j)
  | None -> fail "%s: counter \"obs.events_dropped\" missing" ctx);
  (* querying experiments must surface latency quantiles in their snapshot *)
  if starts_with ~prefix:"pquery_" name then begin
    let h =
      match Obs.Json.member "pquery.latency" (member ~ctx "histograms" metrics) with
      | Some h -> h
      | None -> fail "%s: histogram \"pquery.latency\" missing" ctx
    in
    match Obs.Json.member "p99" h with
    | Some (Obs.Json.Float p) when p >= 0. -> ()
    | Some (Obs.Json.Int p) when p >= 0 -> ()
    | _ -> fail "%s: pquery.latency has no p99 — quantile sketch asleep?" ctx
  end

let () =
  let file, wanted =
    match Array.to_list Sys.argv with
    | _ :: file :: (_ :: _ as wanted) -> (file, wanted)
    | _ -> fail "usage: check_snapshot FILE EXPERIMENT [EXPERIMENT ...]"
  in
  let json =
    match Obs.Json.parse (read_file file) with
    | Ok j -> j
    | Error e -> fail "%s does not parse as JSON: %s" file e
  in
  (match member ~ctx:file "schema" json with
  | Obs.Json.String "imprecise-bench/1" -> ()
  | j -> fail "%s: unexpected schema %s" file (Obs.Json.to_string j));
  let experiments =
    match member ~ctx:file "experiments" json with
    | Obs.Json.List l -> l
    | _ -> fail "%s: \"experiments\" is not a list" file
  in
  List.iter (check_experiment ~file experiments) wanted;
  Printf.printf "check_snapshot: %s OK (%s)\n" file (String.concat ", " wanted)
