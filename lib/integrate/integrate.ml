module Xml = Imprecise_xml
module Pxml = Imprecise_pxml
module Oracle = Imprecise_oracle
module Obs = Imprecise_obs.Obs

module Tree = Xml.Tree
module O = Oracle.Oracle
module P = Pxml.Pxml
module Budget = Imprecise_resilience.Budget

(* Registered at load time so the catalogue is complete even in runs that
   never integrate (metric names: doc/observability.md). *)
let c_runs = Obs.Metrics.counter "integrate.runs"

let c_par_runs = Obs.Metrics.counter "integrate.parallel_runs"

let c_pairs = Obs.Metrics.counter "integrate.pairs_compared"

let c_generated = Obs.Metrics.counter "integrate.pairs_generated"

let c_blocked = Obs.Metrics.counter "integrate.pairs_blocked"

(* Per-blocker pruning counters, one per preset so the catalogue is stable;
   "all" never blocks and stays 0. *)
let blocker_counters =
  List.map
    (fun n -> (n, Obs.Metrics.counter ("integrate.blocked." ^ n)))
    [ "all"; "key"; "qgram"; "sortedneighbourhood" ]

let c_blocked_by name =
  match List.assoc_opt name blocker_counters with
  | Some c -> c
  | None -> Obs.Metrics.counter ("integrate.blocked." ^ name)

let c_unsure = Obs.Metrics.counter "integrate.unsure_pairs"

let c_same = Obs.Metrics.counter "integrate.same_pairs"

let c_clusters = Obs.Metrics.counter "integrate.clusters"

let h_matchings = Obs.Metrics.histogram "integrate.cluster_matchings"

let h_nodes = Obs.Metrics.histogram "integrate.nodes_produced"

let h_worlds = Obs.Metrics.histogram "integrate.worlds_produced"

type config = {
  oracle : O.t;
  dtd : Xml.Dtd.t;
  factorize : bool;
  value_conflict : Tree.t -> Tree.t -> float;
  reconcile : string -> string -> string -> string option;
  block : Tree.t -> string option;
  blocker : Blocking.spec;
  max_possibilities : int;
  max_matchings : int;
  jobs : int;
  decisions : Oracle.Decision_cache.t option;
  budget : Budget.t option;
}

let config ~oracle ?(dtd = Xml.Dtd.empty) ?(factorize = false)
    ?(value_conflict = fun _ _ -> 0.5) ?(reconcile = fun _ _ _ -> None)
    ?(block = fun _ -> None) ?(blocker = Blocking.All_pairs)
    ?(max_possibilities = 1_000_000) ?(max_matchings = 1_000_000) ?(jobs = 1)
    ?decisions ?budget () =
  if jobs < 1 then invalid_arg "Integrate.config: jobs must be >= 1";
  {
    oracle;
    dtd;
    factorize;
    value_conflict;
    reconcile;
    block;
    blocker;
    max_possibilities;
    max_matchings;
    jobs;
    decisions;
    budget;
  }

type error =
  | Root_mismatch of string * string
  | Mixed_content of string
  | Too_large of int
  | Oracle_conflict of string
  | Infeasible of string
  | Budget_exceeded of string

let pp_error ppf = function
  | Root_mismatch (a, b) -> Fmt.pf ppf "root elements differ: <%s> vs <%s>" a b
  | Mixed_content tag -> Fmt.pf ppf "<%s> mixes text and element children" tag
  | Too_large n -> Fmt.pf ppf "more than %d possibilities; use stats or factorize" n
  | Oracle_conflict msg -> Fmt.pf ppf "oracle conflict: %s" msg
  | Infeasible msg -> Fmt.pf ppf "infeasible integration: %s" msg
  | Budget_exceeded reason -> Fmt.pf ppf "budget exceeded (%s); raise --timeout-ms/--max-worlds" reason

type trace = {
  mutable unsure_pairs : int;
  mutable same_pairs : int;
  mutable cluster_count : int;
  mutable largest_enumeration : int;
  mutable pairs_generated : int;
  mutable pairs_compared : int;
  mutable pairs_blocked : int;
}

let new_trace () =
  {
    unsure_pairs = 0;
    same_pairs = 0;
    cluster_count = 0;
    largest_enumeration = 0;
    pairs_generated = 0;
    pairs_compared = 0;
    pairs_blocked = 0;
  }

type summary = { nodes : float; worlds : float; trace : trace }

exception Run_error of error

(* The integration recursion is written once against this representation
   signature; instantiating it with probabilistic-tree constructors gives
   the materialising integrator, instantiating it with size arithmetic gives
   the analytic estimator. [joint] combines the possibility lists of
   independent clusters into one probability node (the cross product). *)
module type REP = sig
  type node

  type dist

  val text : string -> node

  val elem : string -> (string * string) list -> dist list -> node

  val dist : (float * node list) list -> dist

  val joint : limit:int -> (float * node list) list list -> dist
end

module Engine (R : REP) = struct
  let rec embed (t : Tree.t) : R.node =
    match t with
    | Tree.Text s -> R.text s
    | Tree.Element (tag, attrs, []) -> R.elem tag attrs []
    | Tree.Element (tag, attrs, children) ->
        R.elem tag attrs [ R.dist [ (1., List.map embed children) ] ]

  let non_ws_text t =
    match t with
    | Tree.Text s -> Tree.normalize_space s <> ""
    | Tree.Element _ -> false

  (* Split an element's children into meaningful text and elements; reject
     mixed content. *)
  let split_children tag t =
    let children = Tree.children t in
    let texts = List.filter non_ws_text children in
    let elems = List.filter Tree.is_element children in
    if texts <> [] && elems <> [] then raise (Run_error (Mixed_content tag));
    let text =
      Tree.normalize_space (String.concat " " (List.map Tree.text_content texts))
    in
    (text, elems)

  (* Cross product of weighted alternatives, concatenating payloads in
     order. *)
  let rec cross (lists : (float * 'a list) list list) : (float * 'a list) list =
    match lists with
    | [] -> [ (1., []) ]
    | alts :: rest ->
        let tails = cross rest in
        List.concat_map
          (fun (w, xs) -> List.map (fun (v, ys) -> (w *. v, xs @ ys)) tails)
          alts

  let rec merge cfg trace (a : Tree.t) (b : Tree.t) : (float * R.node) list =
    let tag = Tree.tag a in
    let wl = cfg.value_conflict a b in
    let wr = 1. -. wl in
    match merge_content cfg trace tag a b with
    | None ->
        (* Structural conflict (one side text, other elements): keep the two
           variants as alternatives. *)
        [ (wl, embed a); (wr, embed b) ]
    | Some content ->
        let attrs_a = Tree.attributes a and attrs_b = Tree.attributes b in
        let union favour other =
          favour @ List.filter (fun (k, _) -> not (List.mem_assoc k favour)) other
        in
        let conflicting =
          List.exists
            (fun (k, v) ->
              match List.assoc_opt k attrs_b with
              | Some v' -> v <> v'
              | None -> false)
            attrs_a
        in
        if conflicting then
          [
            (wl, R.elem tag (union attrs_a attrs_b) content);
            (wr, R.elem tag (union attrs_b attrs_a) content);
          ]
        else [ (1., R.elem tag (union attrs_a attrs_b) content) ]

  (* [None] when the two elements cannot be merged structurally. *)
  and merge_content cfg trace tag a b : R.dist list option =
    let text_a, elems_a = split_children tag a in
    let text_b, elems_b = split_children tag b in
    match (text_a, elems_a), (text_b, elems_b) with
    | ("", []), ("", []) -> Some []
    | (ta, []), (tb, []) when ta <> "" && tb <> "" ->
        if String.equal ta tb then Some [ R.dist [ (1., [ R.text ta ]) ] ]
        else (
          match cfg.reconcile tag ta tb with
          | Some v -> Some [ R.dist [ (1., [ R.text v ]) ] ]
          | None ->
              let wl = cfg.value_conflict a b in
              Some [ R.dist [ (wl, [ R.text ta ]); (1. -. wl, [ R.text tb ]) ] ])
    | (ta, []), ("", []) when ta <> "" -> Some [ R.dist [ (1., [ R.text ta ]) ] ]
    | ("", []), (tb, []) when tb <> "" -> Some [ R.dist [ (1., [ R.text tb ]) ] ]
    | ("", ea), ("", eb) -> Some (merge_element_children cfg trace tag ea eb)
    | _ -> None

  and merge_element_children cfg trace tag ea eb : R.dist list =
    (* 1. Reconcile child tags the DTD caps at one occurrence. *)
    let child_tags l = List.filter_map Tree.name l in
    let seen = Hashtbl.create 8 in
    let tags_in_order =
      List.filter
        (fun t ->
          if Hashtbl.mem seen t then false
          else begin
            Hashtbl.add seen t ();
            true
          end)
        (child_tags ea @ child_tags eb)
    in
    let is_special t =
      Xml.Dtd.max_one cfg.dtd ~parent:tag ~child:t
      && List.length (List.filter (fun c -> Tree.name c = Some t) ea) <= 1
      && List.length (List.filter (fun c -> Tree.name c = Some t) eb) <= 1
    in
    let special_tags = List.filter is_special tags_in_order in
    let special_dists =
      Obs.Trace.with_span "reconcile" @@ fun () ->
      List.filter_map
        (fun t ->
          let ca = List.find_opt (fun c -> Tree.name c = Some t) ea in
          let cb = List.find_opt (fun c -> Tree.name c = Some t) eb in
          match ca, cb with
          | None, None -> None
          | Some c, None | None, Some c -> Some (R.dist [ (1., [ embed c ]) ])
          | Some ca, Some cb ->
              if Tree.deep_equal ca cb then Some (R.dist [ (1., [ embed ca ]) ])
              else
                let alts = merge cfg trace ca cb in
                Some (R.dist (List.map (fun (w, n) -> (w, [ n ])) alts)))
        special_tags
    in
    let general l =
      List.filter
        (fun c -> match Tree.name c with Some t -> not (is_special t) | None -> false)
        l
    in
    let ga = Array.of_list (general ea) and gb = Array.of_list (general eb) in
    (* 2. Candidate graph over the general pool. Block keys are computed
       once per child; pairs in different blocks never reach the Oracle —
       the standard entity-resolution blocking optimisation (sound only if
       the blocking function is, which is the caller's promise). *)
    let blocks_a = Array.map cfg.block ga and blocks_b = Array.map cfg.block gb in
    (* The outcome function is called from [cfg.jobs] domains at once, so it
       must not touch [trace] or bump counters one by one: each domain keeps
       a private tally, and the merged totals are folded in below — exact
       counts with no cross-domain mutation. The only shared state it
       reaches is the decision cache, which synchronises internally. *)
    let outcome i j =
      let x = ga.(i) and y = gb.(j) in
      if Tree.name x <> Tree.name y then Matching.Verdict O.Different
      else if
        match blocks_a.(i), blocks_b.(j) with
        | Some ka, Some kb -> not (String.equal ka kb)
        | _ -> false
      then Matching.Blocked
      else
        let v =
          try
            match cfg.decisions with
            | Some cache -> Oracle.Decision_cache.decide cache cfg.oracle x y
            | None -> O.decide cfg.oracle x y
          with O.Conflict msg -> raise (Run_error (Oracle_conflict msg))
        in
        Matching.Verdict v
    in
    (* 3. Compile the blocker's candidate plan — the pluggable stage in
       front of the grid. The plan is built here, before any domain fans
       out, and is immutable afterwards; index construction ticks the same
       budget as grid cells. *)
    let plan =
      match cfg.blocker with
      | Blocking.All_pairs -> None
      | spec ->
          Obs.Trace.with_span "block" (fun () ->
              Blocking.candidates
                (Blocking.plan
                   ~tick:(fun () -> Option.iter Budget.tick cfg.budget)
                   spec ~left:ga ~right:gb))
    in
    let graph, tally =
      Obs.Trace.with_span "match" (fun () ->
          Matching.graph_of_outcomes ?budget:cfg.budget ?candidates:plan
            ~jobs:cfg.jobs ~n_left:(Array.length ga) ~n_right:(Array.length gb)
            outcome)
    in
    trace.pairs_generated <- trace.pairs_generated + tally.Matching.generated;
    trace.pairs_compared <- trace.pairs_compared + tally.Matching.pairs;
    trace.pairs_blocked <- trace.pairs_blocked + tally.Matching.blocked;
    trace.same_pairs <- trace.same_pairs + tally.Matching.same;
    trace.unsure_pairs <- trace.unsure_pairs + tally.Matching.unsure;
    Obs.Metrics.incr ~by:tally.Matching.generated c_generated;
    Obs.Metrics.incr ~by:tally.Matching.pairs c_pairs;
    Obs.Metrics.incr ~by:tally.Matching.blocked c_blocked;
    Obs.Metrics.incr ~by:tally.Matching.same c_same;
    Obs.Metrics.incr ~by:tally.Matching.unsure c_unsure;
    let index_blocked = tally.Matching.generated - tally.Matching.pairs in
    if index_blocked > 0 then begin
      Obs.Metrics.incr ~by:index_blocked (c_blocked_by (Blocking.name cfg.blocker));
      Obs.Event.emit
        ~fields:
          [
            ("blocker", Obs.Json.String (Blocking.name cfg.blocker));
            ("generated", Obs.Json.Int tally.Matching.generated);
            ("compared", Obs.Json.Int tally.Matching.pairs);
            ("blocked", Obs.Json.Int index_blocked);
          ]
        "integrate.block"
    end;
    let iso_left, iso_right = Matching.isolated graph in
    let certain_dist =
      match List.map (fun i -> embed ga.(i)) iso_left
            @ List.map (fun j -> embed gb.(j)) iso_right
      with
      | [] -> []
      | nodes -> [ R.dist [ (1., nodes) ] ]
    in
    let clusters = Matching.clusters graph in
    trace.cluster_count <- trace.cluster_count + List.length clusters;
    Obs.Metrics.incr ~by:(List.length clusters) c_clusters;
    let merged_memo = Hashtbl.create 16 in
    let merged i j =
      match Hashtbl.find_opt merged_memo (i, j) with
      | Some alts -> alts
      | None ->
          let alts = merge cfg trace ga.(i) gb.(j) in
          Hashtbl.add merged_memo (i, j) alts;
          alts
    in
    let embed_left = lazy (Array.map embed ga) and embed_right = lazy (Array.map embed gb) in
    let cluster_possibilities (c : Matching.cluster) : (float * R.node list) list =
      let ms =
        Obs.Trace.with_span "enumerate" (fun () ->
            try Matching.matchings ~limit:cfg.max_matchings c with
            | Matching.Too_many n -> raise (Run_error (Too_large n))
            | Matching.Infeasible msg -> raise (Run_error (Infeasible msg)))
      in
      trace.largest_enumeration <- max trace.largest_enumeration (List.length ms);
      Obs.Metrics.observe h_matchings (float_of_int (List.length ms));
      List.concat_map
        (fun (p, pairs) ->
          let entries =
            List.map
              (fun i ->
                match List.assoc_opt i pairs with
                | Some j -> merged i j
                | None -> [ (1., (Lazy.force embed_left).(i)) ])
              c.Matching.lefts
            @ List.filter_map
                (fun j ->
                  if List.exists (fun (_, j') -> j' = j) pairs then None
                  else Some [ (1., (Lazy.force embed_right).(j)) ])
                c.Matching.rights
          in
          let combos = cross (List.map (List.map (fun (w, n) -> (w, [ n ]))) entries) in
          List.map (fun (w, nodes) -> (p *. w, nodes)) combos)
        ms
    in
    let cluster_dists =
      match clusters with
      | [] -> []
      | clusters ->
          Obs.Trace.with_span "merge" (fun () ->
              let possibilities = List.map cluster_possibilities clusters in
              if cfg.factorize then List.map R.dist possibilities
              else [ R.joint ~limit:cfg.max_possibilities possibilities ])
    in
    special_dists @ certain_dist @ cluster_dists

  let run cfg trace (a : Tree.t) (b : Tree.t) : R.dist =
    match Tree.name a, Tree.name b with
    | Some ta, Some tb when ta <> tb -> raise (Run_error (Root_mismatch (ta, tb)))
    | None, _ | _, None -> raise (Run_error (Root_mismatch ("#text", "#text")))
    | Some _, Some _ ->
        let alts = merge cfg trace a b in
        R.dist (List.map (fun (w, n) -> (w, [ n ])) alts)
end

module Materialize_rep = struct
  type node = P.node

  type dist = P.dist

  let text s = P.Text s

  let elem tag attrs content = P.Elem (tag, attrs, content)

  let dist possibilities =
    P.dist (List.map (fun (w, nodes) -> P.choice ~prob:w nodes) possibilities)

  let joint ~limit (clusters : (float * node list) list list) =
    let total =
      List.fold_left (fun acc ps -> acc * List.length ps) 1 clusters
    in
    if total > limit || total < 0 then raise (Run_error (Too_large limit));
    let rec go = function
      | [] -> [ (1., []) ]
      | ps :: rest ->
          let tails = go rest in
          List.concat_map
            (fun (w, nodes) ->
              List.map (fun (v, more) -> (w *. v, nodes @ more)) tails)
            ps
    in
    dist (go clusters)
end

module Count_rep = struct
  (* [nodes] mirrors Pxml.node_count, [worlds] mirrors Pxml.world_count. *)
  type node = { nodes : float; worlds : float }

  type dist = node

  let text _ = { nodes = 1.; worlds = 1. }

  let elem _ _ content =
    List.fold_left
      (fun acc d -> { nodes = acc.nodes +. d.nodes; worlds = acc.worlds *. d.worlds })
      { nodes = 1.; worlds = 1. }
      content

  let possibility_measure nodes_list =
    List.fold_left
      (fun acc n -> { nodes = acc.nodes +. n.nodes; worlds = acc.worlds *. n.worlds })
      { nodes = 1. (* the possibility node itself *); worlds = 1. }
      nodes_list

  let dist possibilities =
    List.fold_left
      (fun acc (_, nodes_list) ->
        let m = possibility_measure nodes_list in
        { nodes = acc.nodes +. m.nodes; worlds = acc.worlds +. m.worlds })
      { nodes = 1. (* the probability node itself *); worlds = 0. }
      possibilities

  let joint ~limit:_ (clusters : (float * node list) list list) =
    (* One probability node holding the cross product of the clusters'
       possibility lists, sized without expanding it. With m_c possibilities
       of total payload T_c and world sum W_c per cluster:
       possibilities P = ∏ m_c, payload Σ = Σ_c T_c·(P/m_c), worlds = ∏ W_c. *)
    let summaries =
      List.map
        (fun ps ->
          let m = float_of_int (List.length ps) in
          let t, w =
            List.fold_left
              (fun (t, w) (_, nodes_list) ->
                let payload =
                  List.fold_left (fun acc n -> acc +. n.nodes) 0. nodes_list
                in
                let worlds =
                  List.fold_left (fun acc n -> acc *. n.worlds) 1. nodes_list
                in
                (t +. payload, w +. worlds))
              (0., 0.) ps
          in
          (m, t, w))
        clusters
    in
    let p = List.fold_left (fun acc (m, _, _) -> acc *. m) 1. summaries in
    let payload =
      List.fold_left (fun acc (m, t, _) -> acc +. (t *. (p /. m))) 0. summaries
    in
    let worlds = List.fold_left (fun acc (_, _, w) -> acc *. w) 1. summaries in
    { nodes = 1. +. p +. payload; worlds }
end

module Materializer = Engine (Materialize_rep)
module Counter = Engine (Count_rep)

let run_catching f =
  try Ok (f ()) with
  | Run_error e -> Error e
  | Matching.Infeasible msg -> Error (Infeasible msg)
  | O.Conflict msg -> Error (Oracle_conflict msg)
  | Budget.Exceeded reason -> Error (Budget_exceeded (Budget.reason_to_string reason))

(* [run_catching] turns failures into [Error], so an op would read "ok"
   for a failed integration; [recorded] re-surfaces the error as the op's
   outcome. *)
let recorded ~op f =
  Obs.Trace.op op @@ fun () ->
  let result = f () in
  (match result with
  | Error e -> Obs.Trace.outcome (Fmt.str "error:%a" pp_error e)
  | Ok _ -> ());
  result

let note_trace trace =
  Obs.Trace.note "pairs_generated" (Obs.Json.Int trace.pairs_generated);
  Obs.Trace.note "pairs_compared" (Obs.Json.Int trace.pairs_compared);
  Obs.Trace.note "clusters" (Obs.Json.Int trace.cluster_count)

let integrate_traced cfg a b =
  Obs.Metrics.incr c_runs;
  if cfg.jobs > 1 then Obs.Metrics.incr c_par_runs;
  let trace = new_trace () in
  recorded ~op:"integrate" @@ fun () ->
  run_catching (fun () ->
      let doc = Materializer.run cfg trace a b in
      Obs.Metrics.observe h_nodes (float_of_int (P.node_count doc));
      Obs.Metrics.observe h_worlds (P.world_count doc);
      note_trace trace;
      (doc, trace))

let integrate cfg a b = Result.map fst (integrate_traced cfg a b)

let stats cfg a b =
  Obs.Metrics.incr c_runs;
  let trace = new_trace () in
  recorded ~op:"integrate.stats" @@ fun () ->
  run_catching (fun () ->
      let m = Counter.run cfg trace a b in
      Obs.Metrics.observe h_nodes m.Count_rep.nodes;
      Obs.Metrics.observe h_worlds m.Count_rep.worlds;
      note_trace trace;
      { nodes = m.Count_rep.nodes; worlds = m.Count_rep.worlds; trace })

let integrate_incremental cfg ?(world_limit = 1000.) doc source =
  let combos = P.world_count doc in
  if combos > world_limit then Error (Too_large (int_of_float world_limit))
  else begin
    Obs.Metrics.incr c_runs;
    let trace = new_trace () in
    recorded ~op:"integrate.incremental" @@ fun () ->
    run_catching (fun () ->
        let choices =
          List.concat_map
            (fun (p, forest) ->
              match forest with
              | [ world_root ] ->
                  let merged = Materializer.run cfg trace world_root source in
                  List.map
                    (fun (c : P.choice) -> { c with P.prob = p *. c.prob })
                    merged.P.choices
              | _ ->
                  raise
                    (Run_error
                       (Root_mismatch
                          ("#forest", Option.value ~default:"#text" (Tree.name source)))))
            (Imprecise_pxml.Worlds.merged ?budget:cfg.budget doc)
        in
        Imprecise_pxml.Compact.compact (P.dist choices))
  end
