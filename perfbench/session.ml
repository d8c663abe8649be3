(* Session benchmark: one closed-loop, single-client workload against the
   public Imprecise API, timed on bechamel's monotonic clock.

     session.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR

   --trace 0 reports the end-to-end metrics; --trace 1 runs the same op
   stream untraced for S/2 seconds and traced for S/2 and reports the
   per-layer metrics. The last line of stdout is the JSON result; lines
   before it are a human-readable report. See README.md. *)

open Imprecise

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let setups = 3

(* Counters read around every op; their deltas are summed per op kind. *)
let counter_names =
  [|
    "pquery.ranks";
    "pquery.path.direct";
    "pquery.path.enumerate";
    "pquery.static_pruned";
    "pquery.worlds_enumerated";
    "pquery.cache.hit";
    "pquery.cache.miss";
    "oracle.decisions";
    "oracle.default_prob_used";
    "oracle.cache.hit";
    "oracle.cache.miss";
    "integrate.pairs_generated";
    "integrate.pairs_compared";
    "pxml.intern.hit";
    "pxml.intern.miss";
    "store.bytes_written";
    "store.fsyncs";
    "store.bytes_read";
  |]

let counters = Array.map (fun n -> Obs.Metrics.counter n) counter_names

let counter_index name =
  let rec go i = if counter_names.(i) = name then i else go (i + 1) in
  go 0

let n_kinds = List.length Op.kinds

type phase = {
  latencies : float list array;  (** seconds, per kind *)
  deltas : int array array;  (** counter deltas, per kind *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few [Failed] messages *)
  mutable wrong : string list;  (** every [Wrong] message *)
  layers : Layers.t;
  minor : float array;  (** minor words, per kind *)
  mutable promoted : float;
  mutable majors : int;
}

let new_phase () =
  {
    latencies = Array.make n_kinds [];
    deltas = Array.init n_kinds (fun _ -> Array.make (Array.length counters) 0);
    attempted = 0;
    failed = 0;
    failures = [];
    wrong = [];
    layers = Layers.create ();
    minor = Array.make n_kinds 0.;
    promoted = 0.;
    majors = 0;
  }

let count p kind = List.length p.latencies.(Op.index kind)

let ops p = Array.fold_left (fun acc l -> acc + List.length l) 0 p.latencies

let busy p = Array.fold_left (List.fold_left ( +. )) 0. p.latencies

let delta p kind name = p.deltas.(Op.index kind).(counter_index name)

let total_delta p name = List.fold_left (fun acc k -> acc + delta p k name) 0 Op.kinds

(* Compile time: [rank] parses its query before any library span opens, so
   the traced run re-times one compile per [pquery.ranks] increment. *)
let compile_seconds q =
  let t0 = now () in
  ignore (Pquery.compile q);
  now () -. t0

(* The closed loop: one client, the next op only after the previous one
   (and its check) completes. *)
let run_phase ~traced ~seconds ~seed (w : Mixes.t) =
  let p = new_phase () in
  let rng = Random.State.make [| seed; 1 |] in
  let deck = Array.of_list w.Mixes.deck in
  let pos = ref (Array.length deck) in
  let roots = ref [] in
  if traced then Obs.Trace.install ~now (fun s -> roots := s :: !roots);
  let before = Array.make (Array.length counters) 0 in
  let deadline = now () +. seconds in
  while now () < deadline do
    if !pos >= Array.length deck then (
      Mixes.shuffle rng deck;
      pos := 0);
    let op = deck.(!pos) rng in
    incr pos;
    let kind = op.Op.kind in
    let k = Op.index kind in
    Array.iteri (fun i c -> before.(i) <- Obs.Metrics.count c) counters;
    let g0 = if traced then Some (Gc.quick_stat ()) else None in
    (* drop spans the previous op's check emitted *)
    roots := [];
    let t0 = now () in
    let check =
      if traced then Obs.Trace.with_span ("op." ^ Op.name kind) op.Op.exec else op.Op.exec ()
    in
    let t1 = now () in
    Array.iteri
      (fun i c -> p.deltas.(k).(i) <- p.deltas.(k).(i) + Obs.Metrics.count c - before.(i))
      counters;
    (match g0 with
    | None -> ()
    | Some g0 ->
        let g1 = Gc.quick_stat () in
        p.minor.(k) <- p.minor.(k) +. g1.minor_words -. g0.minor_words;
        p.promoted <- p.promoted +. g1.promoted_words -. g0.promoted_words;
        p.majors <- p.majors + g1.major_collections - g0.major_collections;
        List.iter (Layers.record p.layers kind) !roots;
        let ranks = Obs.Metrics.count counters.(0) - before.(0) in
        match op.query with
        | Some q when ranks > 0 ->
            Layers.add p.layers kind "xpath.compile" (float ranks *. compile_seconds q)
        | _ -> ());
    p.latencies.(k) <- (t1 -. t0) :: p.latencies.(k);
    p.attempted <- p.attempted + 1;
    match check () with
    | Op.Pass -> ()
    | Op.Failed m ->
        p.failed <- p.failed + 1;
        if List.length p.failures < 5 then p.failures <- m :: p.failures
    | Op.Wrong m ->
        p.failed <- p.failed + 1;
        p.wrong <- m :: p.wrong
  done;
  if traced then Obs.Trace.uninstall ();
  p

(* ---- statistics ----------------------------------------------------------- *)

let quantile q l =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float i in
      if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

let ratio a b = if b = 0 then 0. else float a /. float b

let per n x = if n = 0 then 0. else x /. float n

(* ---- output ----------------------------------------------------------------- *)

let metric name unit value =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ])

let end_to_end ~setup_s ~(w : Mixes.t) p =
  let ms kind q = 1000. *. quantile q p.latencies.(Op.index kind) in
  let sum f = List.fold_left (fun acc it -> acc + f it) 0 w.items in
  let on_disk = sum (fun (it : Mixes.item) -> Mixes.dir_bytes it.dir) in
  let input = sum Mixes.source_bytes in
  [ metric "setup_s" "s" setup_s; metric "ops_per_s" "ops/s" (float (ops p) /. busy p) ]
  @ List.concat_map
      (fun kind ->
        let n = Op.name kind in
        [ metric (n ^ "_p50_ms") "ms" (ms kind 0.5); metric (n ^ "_p90_ms") "ms" (ms kind 0.9) ])
      Op.kinds
  @ [
      metric "peak_heap_mb" "MB"
        (float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8) /. 1e6);
      metric "store_bytes_per_input_byte" "ratio" (ratio on_disk input);
    ]

let per_layer ~untraced p =
  let n kind = count p kind in
  let d = delta p in
  let self kind layer = 1000. *. per (n kind) (Layers.get p.layers kind layer) in
  let traced_ms kind =
    1000. *. per (n kind) (List.fold_left ( +. ) 0. p.latencies.(Op.index kind))
  in
  let by_kind kind =
    let owned = Layers.owned kind in
    let name = "op." ^ Op.name kind in
    List.map (fun l -> metric (l ^ "_ms") "ms" (self kind l)) owned
    @ [
        metric (name ^ ".traced_ms") "ms" (traced_ms kind);
        metric (name ^ ".other_ms") "ms"
          (traced_ms kind -. List.fold_left (fun acc l -> acc +. self kind l) 0. owned);
      ]
  in
  let mean kind x = per (n kind) (float x) in
  let share kind a b = ratio (d kind a) (d kind b) in
  let hit_ratio kind prefix =
    ratio (d kind (prefix ^ ".hit")) (d kind (prefix ^ ".hit") + d kind (prefix ^ ".miss"))
  in
  let mw kind = per (n kind) (p.minor.(Op.index kind) /. 1e6) in
  let rate ph = float (ops ph) /. busy ph in
  let intern_hit = total_delta p "pxml.intern.hit" in
  let q = Op.Query and i = Op.Integrate and f = Op.Feedback in
  List.concat_map by_kind Op.kinds
  @ [
      metric "pquery.worlds_per_query" "count" (mean q (d q "pquery.worlds_enumerated"));
      metric "pquery.cache_hit_ratio" "ratio" (hit_ratio q "pquery.cache");
      metric "pquery.answers_per_query" "count" (mean q !Op.Probe.answers);
      metric "pquery.route_direct_share" "ratio" (share q "pquery.path.direct" "pquery.ranks");
      metric "pquery.route_enumerate_share" "ratio"
        (share q "pquery.path.enumerate" "pquery.ranks");
      metric "pquery.static_pruned_share" "ratio" (share q "pquery.static_pruned" "pquery.ranks");
      metric "pquery.alloc_mw" "Mwords" (mw q);
      metric "oracle.decisions_per_integrate" "count" (mean i (d i "oracle.decisions"));
      metric "oracle.unsure_share" "ratio"
        (share i "oracle.default_prob_used" "oracle.decisions");
      metric "oracle.decision_cache_hit_ratio" "ratio" (hit_ratio i "oracle.cache");
      metric "integrate.compared_share" "ratio"
        (share i "integrate.pairs_compared" "integrate.pairs_generated");
      metric "integrate.nodes_out" "count" (mean i !Op.Probe.nodes_out);
      metric "integrate.alloc_mw" "Mwords" (mw i);
      metric "pxml.intern_hit_ratio" "ratio"
        (ratio intern_hit (intern_hit + total_delta p "pxml.intern.miss"));
      metric "pxml.doc_worlds" "count" (median !Op.Probe.doc_worlds);
      metric "feedback.alloc_mw" "Mwords" (mw f);
      metric "store.bytes_written_per_save" "bytes"
        (mean Op.Save (d Op.Save "store.bytes_written"));
      metric "store.fsyncs_per_save" "count" (mean Op.Save (d Op.Save "store.fsyncs"));
      metric "store.bytes_read_per_load" "bytes" (mean Op.Load (d Op.Load "store.bytes_read"));
      metric "gc.minor_mw_per_op" "Mwords"
        (per (ops p) (Array.fold_left ( +. ) 0. p.minor /. 1e6));
      metric "gc.promoted_mw_per_op" "Mwords" (per (ops p) (p.promoted /. 1e6));
      metric "gc.major_collections" "count" (float p.majors);
      metric "trace.overhead_frac" "ratio" (1. -. (rate p /. rate untraced));
      metric "failed_frac" "ratio"
        (ratio (p.failed + untraced.failed) (p.attempted + untraced.attempted));
    ]

let report_kinds p =
  List.iter
    (fun kind ->
      let l = p.latencies.(Op.index kind) in
      Printf.printf "  %-10s %6d ops  p50 %9.3f ms  p90 %9.3f ms\n" (Op.name kind) (List.length l)
        (1000. *. quantile 0.5 l) (1000. *. quantile 0.9 l))
    Op.kinds

let report_layers p =
  List.iter
    (fun kind ->
      let n = count p kind in
      Printf.printf "  %s (%d ops, traced %.3f ms/op):\n" (Op.name kind) n
        (1000. *. per n (List.fold_left ( +. ) 0. p.latencies.(Op.index kind)));
      List.iter
        (fun (layer, s) ->
          Printf.printf "    %-22s %9.4f ms/op%s\n" layer (1000. *. per n s)
            (if List.mem layer (Layers.owned kind) then "" else "  (other)"))
        (Layers.breakdown p.layers kind))
    Op.kinds

(* ---- main -------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: session --workload NAME --seed N --seconds S --trace 0|1 --work DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = float (int "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let setup =
    match List.assoc_opt workload Mixes.all with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %s\n" workload;
        exit 2
  in
  Obs.Clock.set now;
  let root = Filename.concat (get "work") workload in
  let fail_with msg =
    Mixes.rm_rf root;
    Printf.eprintf "session: %s\n" msg;
    exit 1
  in
  let times = ref [] in
  let w = ref None in
  (try
     for _ = 1 to setups do
       Mixes.rm_rf root;
       Mixes.mkdir_p root;
       let t0 = now () in
       let s = setup ~seed ~root in
       times := (now () -. t0) :: !times;
       w := Some s
     done
   with
  | Op.Wrong_answer m -> fail_with ("wrong answer in set-up: " ^ m)
  | Op.Failed_call m -> fail_with ("set-up failed: " ^ m));
  let w = Option.get !w in
  let setup_s = median !times in
  Printf.printf "workload %s, seed %d, %s run of %gs; set-up %.3fs (median of %d)\n" workload seed
    (if traced then "traced" else "untraced") seconds setup_s setups;
  List.iter (Printf.printf "  %s\n") w.sizes;
  let main, metrics =
    if not traced then
      let p = run_phase ~traced:false ~seconds ~seed w in
      report_kinds p;
      (p, end_to_end ~setup_s ~w p)
    else
      let untraced = run_phase ~traced:false ~seconds:(seconds /. 2.) ~seed w in
      Op.Probe.reset ();
      let p = run_phase ~traced:true ~seconds:(seconds /. 2.) ~seed w in
      report_kinds p;
      report_layers p;
      let both =
        {
          p with
          attempted = p.attempted + untraced.attempted;
          failed = p.failed + untraced.failed;
          failures = p.failures @ untraced.failures;
          wrong = p.wrong @ untraced.wrong;
        }
      in
      (both, per_layer ~untraced p)
  in
  Mixes.rm_rf root;
  List.iter (Printf.printf "  failed: %s\n") main.failures;
  List.iter (Printf.printf "  wrong: %s\n") main.wrong;
  let wrong = main.wrong <> [] in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (not wrong));
            ("attempted", Obs.Json.Int main.attempted);
            ("failed", Obs.Json.Int main.failed);
            ("metrics", Obs.Json.Obj metrics);
          ]));
  if wrong then exit 1
