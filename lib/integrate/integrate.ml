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

(* Per-blocker pruning counters, one per [Blocking.name] so the catalogue
   is stable; "all" never blocks and stays 0. *)
let blocker_counters =
  List.map
    (fun n -> (n, Obs.Metrics.counter ("integrate.blocked." ^ n)))
    [ "all"; "key"; "qgram"; "sortedneighbourhood" ]

let c_blocked_by name = List.assoc name blocker_counters

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
  blocker : Blocking.spec;
  max_possibilities : int;
  jobs : int;
  decisions : Oracle.Decision_cache.t option;
  budget : Budget.t option;
}

let config ~oracle ?(dtd = Xml.Dtd.empty) ?(factorize = false)
    ?(value_conflict = fun _ _ -> 0.5) ?(reconcile = fun _ _ _ -> None)
    ?(blocker = Blocking.All_pairs) ?(max_possibilities = 1_000_000) ?(jobs = 1)
    ?decisions ?budget () =
  if jobs < 1 then invalid_arg "Integrate.config: jobs must be >= 1";
  {
    oracle;
    dtd;
    factorize;
    value_conflict;
    reconcile;
    blocker;
    max_possibilities;
    jobs;
    decisions;
    budget;
  }

(* Enumeration cap per cluster of the candidate graph. *)
let max_matchings = 1_000_000

type error =
  | Root_mismatch of string * string
  | Mixed_content of string
  | Too_large of int
  | Oracle_conflict of string
  | Infeasible of string
  | Budget_exceeded of string
  | No_sources

let pp_error ppf = function
  | Root_mismatch (a, b) -> Fmt.pf ppf "root elements differ: <%s> vs <%s>" a b
  | Mixed_content tag -> Fmt.pf ppf "<%s> mixes text and element children" tag
  | Too_large n -> Fmt.pf ppf "more than %d possibilities; use stats or factorize" n
  | Oracle_conflict msg -> Fmt.pf ppf "oracle conflict: %s" msg
  | Infeasible msg -> Fmt.pf ppf "infeasible integration: %s" msg
  | Budget_exceeded reason -> Fmt.pf ppf "budget exceeded (%s); raise --timeout-ms/--max-worlds" reason
  | No_sources -> Fmt.pf ppf "no sources to integrate"

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
     mixed content. The text is every text child concatenated, then
     space-normalised, as [Tree.canonical] merges adjacent text. *)
  let split_children tag t =
    let children = Tree.children t in
    let elems = List.filter Tree.is_element children in
    if elems <> [] && List.exists non_ws_text children then
      raise (Run_error (Mixed_content tag));
    let text =
      Tree.normalize_space
        (String.concat ""
           (List.filter_map (function Tree.Text s -> Some s | Tree.Element _ -> None) children))
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

  let union favour other =
    favour @ List.filter (fun (k, _) -> not (List.mem_assoc k favour)) other

  let conflicting attrs_a attrs_b =
    List.exists
      (fun (k, v) ->
        match List.assoc_opt k attrs_b with Some v' -> v <> v' | None -> false)
      attrs_a

  (* [tag_counts tags t] is how often [t] occurs in [tags]. *)
  let tag_counts tags =
    let counts = Hashtbl.create 8 in
    List.iter
      (fun t ->
        Hashtbl.replace counts t (1 + Option.value ~default:0 (Hashtbl.find_opt counts t)))
      tags;
    fun t -> Option.value ~default:0 (Hashtbl.find_opt counts t)

  (* How the child step reads the left side's element children: plain
     trees in a two-source merge, children of the probabilistic document in
     the structural fold ([Fold] below). *)
  type 'l left = {
    tag_of : 'l -> string;
    embed_l : 'l -> R.node;
    merge_l : 'l -> Tree.t -> (float * R.node) list;  (** a matched pair *)
    reconcile_l : 'l -> Tree.t -> (float * R.node) list;
        (** a pair under a tag the DTD caps at one occurrence *)
  }

  (* The candidate graph of [ga] × [gb]: the blocker's plan picks the cells,
     the Oracle scores them. *)
  let grid cfg trace (ga : Tree.t array) (gb : Tree.t array) : Matching.graph =
    (* Decision-cache keys are built once per child: one hashing
       traversal each, here and single-threaded, so the band workers only
       probe. *)
    let decide =
      match cfg.decisions with
      | None -> fun i j -> O.decide cfg.oracle ga.(i) gb.(j)
      | Some cache ->
          let key = Oracle.Decision_cache.key in
          let keys_a = Array.map key ga and keys_b = Array.map key gb in
          fun i j -> Oracle.Decision_cache.decide cache cfg.oracle keys_a.(i) keys_b.(j)
    in
    (* The verdict function is called from [cfg.jobs] domains at once, so it
       must not touch [trace] or bump counters one by one: each domain keeps
       a private tally, and the merged totals are folded in below — exact
       counts with no cross-domain mutation. The only shared state it
       reaches is the decision cache, which synchronises internally. *)
    let verdict i j =
      if Tree.name ga.(i) <> Tree.name gb.(j) then O.Different
      else try decide i j with O.Conflict msg -> raise (Run_error (Oracle_conflict msg))
    in
    (* The blocker's candidate plan is the pluggable stage in front of the
       grid. It is built here, before any domain fans out, and is immutable
       afterwards; index construction ticks the same budget as grid
       cells. *)
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
          Matching.graph ?budget:cfg.budget ?candidates:plan ~jobs:cfg.jobs
            ~n_left:(Array.length ga) ~n_right:(Array.length gb) verdict)
    in
    let blocked = tally.Matching.generated - tally.Matching.pairs in
    trace.pairs_generated <- trace.pairs_generated + tally.Matching.generated;
    trace.pairs_compared <- trace.pairs_compared + tally.Matching.pairs;
    trace.pairs_blocked <- trace.pairs_blocked + blocked;
    trace.same_pairs <- trace.same_pairs + tally.Matching.same;
    trace.unsure_pairs <- trace.unsure_pairs + tally.Matching.unsure;
    Obs.Metrics.incr ~by:tally.Matching.generated c_generated;
    Obs.Metrics.incr ~by:tally.Matching.pairs c_pairs;
    Obs.Metrics.incr ~by:blocked c_blocked;
    Obs.Metrics.incr ~by:tally.Matching.same c_same;
    Obs.Metrics.incr ~by:tally.Matching.unsure c_unsure;
    if blocked > 0 then begin
      Obs.Metrics.incr ~by:blocked (c_blocked_by (Blocking.name cfg.blocker));
      Obs.Event.emit
        ~fields:
          [
            ("blocker", Obs.Json.String (Blocking.name cfg.blocker));
            ("generated", Obs.Json.Int tally.Matching.generated);
            ("compared", Obs.Json.Int tally.Matching.pairs);
            ("blocked", Obs.Json.Int blocked);
          ]
        "integrate.block"
    end;
    graph

  let positions keep arr =
    let out = ref [] in
    Array.iteri (fun i x -> if keep x then out := i :: !out) arr;
    Array.of_list (List.rev !out)

  (* The child step of one merged element. [count_b] counts the right
     side's children per tag, [score ga gb] is the candidate graph over the
     general pools, given as positions in [ea] and [eb]. *)
  let children cfg trace tag (l : 'l left) ~count_b ~score (ea : 'l array)
      (eb : Tree.t array) : R.dist list =
    (* 1. Reconcile child tags the DTD caps at one occurrence. *)
    let tags_a = Array.to_list (Array.map l.tag_of ea) in
    let count_a = tag_counts tags_a in
    let seen = Hashtbl.create 8 in
    let tags_in_order =
      List.filter
        (fun t ->
          if Hashtbl.mem seen t then false
          else begin
            Hashtbl.add seen t ();
            true
          end)
        (tags_a @ List.filter_map Tree.name (Array.to_list eb))
    in
    let is_special t =
      Xml.Dtd.max_one cfg.dtd ~parent:tag ~child:t && count_a t <= 1 && count_b t <= 1
    in
    let special_tags = List.filter is_special tags_in_order in
    let special_dists =
      Obs.Trace.with_span "reconcile" @@ fun () ->
      List.filter_map
        (fun t ->
          let ca = Array.find_opt (fun c -> l.tag_of c = t) ea in
          let cb = Array.find_opt (fun c -> Tree.name c = Some t) eb in
          match ca, cb with
          | None, None -> None
          | Some c, None -> Some (R.dist [ (1., [ l.embed_l c ]) ])
          | None, Some c -> Some (R.dist [ (1., [ embed c ]) ])
          | Some ca, Some cb ->
              Some (R.dist (List.map (fun (w, n) -> (w, [ n ])) (l.reconcile_l ca cb))))
        special_tags
    in
    (* 2. Candidate graph over the general pool. *)
    let ga_pos = positions (fun c -> not (is_special (l.tag_of c))) ea in
    let gb_pos =
      positions
        (fun c -> match Tree.name c with Some t -> not (is_special t) | None -> false)
        eb
    in
    let graph = score ga_pos gb_pos in
    let ga = Array.map (fun i -> ea.(i)) ga_pos and gb = Array.map (fun j -> eb.(j)) gb_pos in
    let iso_left, iso_right = Matching.isolated graph in
    let certain_dist =
      match List.map (fun i -> l.embed_l ga.(i)) iso_left
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
          let alts = l.merge_l ga.(i) gb.(j) in
          Hashtbl.add merged_memo (i, j) alts;
          alts
    in
    let embed_left = lazy (Array.map l.embed_l ga) and embed_right = lazy (Array.map embed gb) in
    let cluster_possibilities (c : Matching.cluster) : (float * R.node list) list =
      let ms =
        Obs.Trace.with_span "enumerate" (fun () ->
            try Matching.matchings ~limit:max_matchings c with
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
        if conflicting attrs_a attrs_b then
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
    | ("", ea), ("", eb) ->
        let ea = Array.of_list ea and eb = Array.of_list eb in
        let pick arr pos = Array.map (fun i -> arr.(i)) pos in
        Some
          (children cfg trace tag (trees cfg trace)
             ~count_b:(tag_counts (List.filter_map Tree.name (Array.to_list eb)))
             ~score:(fun ga gb -> grid cfg trace (pick ea ga) (pick eb gb))
             ea eb)
    | _ -> None

  and trees cfg trace =
    {
      tag_of = Tree.tag;
      embed_l = embed;
      merge_l = merge cfg trace;
      reconcile_l =
        (fun ca cb ->
          if Tree.deep_equal ca cb then [ (1., embed ca) ] else merge cfg trace ca cb);
    }

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

(* ---- the structural fold ------------------------------------------------------------ *)

(* [integrate_incremental] (semantics in the mli): the touched probability
   nodes of each element are enumerated group by group through
   [Materializer.children], the rest is carried over by pointer. *)
module Fold = struct
  module M = Materializer

  type vertex = {
    node : P.node;  (** the child as stored, carried over by pointer *)
    world : Tree.t option;
        (** its only local world, or the world a split vertex stands for *)
    worlds : (float * Tree.t) list Lazy.t;
    edges : (int * float) list;
        (** (position among the source's children, probability), ascending *)
    merged : (Tree.t * (float * P.node) list) list ref;
    reconciled : (Tree.t * (float * P.node) list) list ref;
        (** per source child, across the combinations that meet it *)
  }

  let live (d : P.dist) = List.filter (fun (c : P.choice) -> c.P.prob > 0.) d.P.choices

  let is_elem = function P.Elem _ -> true | P.Text _ -> false

  let elems (c : P.choice) = List.filter is_elem c.P.nodes

  let tag_of = function P.Elem (t, _, _) -> t | P.Text _ -> ""

  let tick cfg = Option.iter Budget.tick cfg.budget

  let too_large cfg = raise (Run_error (Too_large cfg.max_possibilities))

  (* The local worlds of one child in canonical form (adjacent text
     joined, as a whole world reads), each ticking the budget. *)
  let local_worlds cfg (n : P.node) : (float * Tree.t) list =
    let rec take k seq acc =
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons ((p, t), rest) ->
          if k = 0 then too_large cfg;
          tick cfg;
          take (k - 1) rest ((p, Tree.canonical t) :: acc)
    in
    take cfg.max_possibilities (Imprecise_pxml.Worlds.enumerate_node n) []

  let scale p alts = List.map (fun (w, n) -> (p *. w, n)) alts

  (* Alternatives that are one element with at most one probability node
     each mix into that element over the mixed node: the same worlds, one
     alternative — what keeps a leaf folded source after source to one
     choice per value. *)
  let mix alts =
    let single = function
      | P.Elem (tag, attrs, ([] | [ _ ])) -> Some (tag, attrs)
      | P.Elem _ | P.Text _ -> None
    in
    match alts with
    | [] | [ _ ] -> alts
    | (_, first) :: _ -> (
        match single first with
        | Some shape when List.for_all (fun (_, n) -> single n = Some shape) alts ->
            let tag, attrs = shape in
            let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. alts in
            let choices =
              List.concat_map
                (fun (w, n) ->
                  match n with
                  | P.Elem (_, _, [ d ]) ->
                      List.map
                        (fun (c : P.choice) -> { c with P.prob = w /. total *. c.P.prob })
                        d.P.choices
                  | _ -> [ P.choice ~prob:(w /. total) [] ])
                alts
            in
            [ (total, P.Elem (tag, attrs, [ P.dist choices ])) ]
        | _ -> alts)

  let memo table (s : Tree.t) f =
    match List.assq_opt s !table with
    | Some alts -> alts
    | None ->
        let alts = f () in
        table := (s, alts) :: !table;
        alts

  (* The mixture over [n]'s worlds of their merge with [b]. *)
  let rec fold_elem cfg trace (n : P.node) (b : Tree.t) : (float * P.node) list =
    match n with
    | P.Elem (tag, attrs, content) ->
        let text_b, eb = M.split_children tag b in
        let attrs_b = Tree.attributes b in
        let texty =
          List.exists
            (fun d ->
              List.exists
                (fun (c : P.choice) ->
                  List.exists
                    (function P.Text s -> Tree.normalize_space s <> "" | P.Elem _ -> false)
                    c.P.nodes)
                (live d))
            content
        in
        if text_b = "" && (not texty) && not (M.conflicting attrs attrs_b) then
          (* Every world merges its element children and nothing else: one
             element whose content folds structurally. *)
          [
            ( 1.,
              P.Elem (tag, M.union attrs attrs_b, fold_children cfg trace tag content (Array.of_list eb)) );
          ]
        else
          (* Text, or a conflict [value_conflict] weighs per world. *)
          mix
            (List.concat_map (fun (p, a) -> scale p (M.merge cfg trace a b)) (local_worlds cfg n))
    | P.Text _ -> invalid_arg "Integrate.Fold.fold_elem: text node"

  and fold_children cfg trace tag (content : P.dist list) (eb : Tree.t array) : P.dist list =
    let count_b = M.tag_counts (List.filter_map Tree.name (Array.to_list eb)) in
    let capped t = Xml.Dtd.max_one cfg.dtd ~parent:tag ~child:t && count_b t = 1 in
    let choices = List.map (fun d -> List.map (fun c -> (c, elems c)) (live d)) content in
    (* A capped tag that no world holds twice is always reconciled, never
       scored: probability nodes choose independently, so the most
       children of a tag one world holds is a sum of per-node maxima. *)
    let always_reconciled t =
      capped t
      && List.fold_left
           (fun acc cs ->
             acc
             + List.fold_left
                 (fun m (_, ns) ->
                   max m (List.length (List.filter (fun n -> tag_of n = t) ns)))
                 0 cs)
           0 choices
         <= 1
    in
    let scored t = count_b t > 0 && not (always_reconciled t) in
    (* 1. Every distinct child, in order of first appearance. Children
       are shared between possibilities (a joint probability node repeats
       its clusters' nodes), so they are keyed by structure. *)
    let index = P.Table.create 16 in
    let distinct = ref [] in
    List.iter
      (List.iter
         (fun (_, ns) ->
           List.iter
             (fun n ->
               if not (P.Table.mem index n) then begin
                 P.Table.add index n (P.Table.length index);
                 distinct := n :: !distinct
               end)
             ns))
      choices;
    let distinct = Array.of_list (List.rev !distinct) in
    (* 2. One grid: every local world of every scored child against the
       source children whose tags it could pair with. *)
    let worlds =
      Obs.Trace.with_span "enumerate" @@ fun () ->
      Array.map
        (fun n -> if scored (tag_of n) then local_worlds cfg n else [])
        distinct
    in
    let rows = List.concat (Array.to_list (Array.map (List.map snd) worlds)) in
    let right_pos =
      M.positions (fun c -> match Tree.name c with Some t -> scored t | None -> false) eb
    in
    let row_edges =
      match rows with
      | [] -> [||]
      | rows ->
          let graph =
            M.grid cfg trace (Array.of_list rows) (Array.map (fun j -> eb.(j)) right_pos)
          in
          let out = Array.make (List.length rows) [] in
          List.iter
            (fun (e : Matching.edge) ->
              out.(e.Matching.left) <- (right_pos.(e.Matching.right), e.Matching.prob) :: out.(e.Matching.left))
            graph.Matching.edges;
          Array.map List.rev out
    in
    (* 3. Vertices: a child whose local worlds all score alike is one
       vertex; otherwise each of its worlds is one. *)
    let vertex ?world ~worlds edges node =
      { node; world; worlds; edges; merged = ref []; reconciled = ref [] }
    in
    let row = ref 0 in
    let alternatives =
      Array.mapi
        (fun k n ->
          match worlds.(k) with
          | [] -> [ (1., vertex ~worlds:(lazy (local_worlds cfg n)) [] n) ]
          | ws ->
              let first = !row in
              row := !row + List.length ws;
              let edges = List.init (List.length ws) (fun i -> row_edges.(first + i)) in
              if List.for_all (( = ) (List.hd edges)) edges then
                let world = match ws with [ (_, t) ] -> Some t | _ -> None in
                [ (1., vertex ?world ~worlds:(Lazy.from_val ws) (List.hd edges) n) ]
              else
                List.map2
                  (fun (p, t) e -> (p, vertex ~world:t ~worlds:(Lazy.from_val [ (1., t) ]) e (M.embed t)))
                  ws edges)
        distinct
    in
    let touches n =
      capped (tag_of n) || List.exists (fun (_, v) -> v.edges <> []) alternatives.(P.Table.find index n)
    in
    (* 4. Group the touched probability nodes with the source children
       they reach: union-find over the nodes, then the source children. *)
    let n_dists = List.length content in
    let parent = Array.init (n_dists + Array.length eb) Fun.id in
    let rec find x =
      if parent.(x) = x then x
      else begin
        let root = find parent.(x) in
        parent.(x) <- root;
        root
      end
    in
    let union x y =
      let x = find x and y = find y in
      if x <> y then parent.(max x y) <- min x y
    in
    let capped_right = Hashtbl.create 4 in
    Array.iteri
      (fun r c ->
        match Tree.name c with
        | Some t when capped t -> Hashtbl.replace capped_right t r
        | _ -> ())
      eb;
    let touched =
      Array.of_list (List.map (List.exists (fun (_, ns) -> List.exists touches ns)) choices)
    in
    List.iteri
      (fun d cs ->
        if touched.(d) then
          List.iter
            (fun (_, ns) ->
              List.iter
                (fun n ->
                  List.iter
                    (fun (_, v) -> List.iter (fun (r, _) -> union d (n_dists + r)) v.edges)
                    alternatives.(P.Table.find index n);
                  Option.iter
                    (fun r -> union d (n_dists + r))
                    (Hashtbl.find_opt capped_right (tag_of n)))
                ns)
            cs)
      choices;
    let groups = Hashtbl.create 4 and order = ref [] in
    List.iteri
      (fun d cs ->
        if touched.(d) then begin
          let g = find d in
          match Hashtbl.find_opt groups g with
          | Some (dists, rights) -> Hashtbl.replace groups g (cs :: dists, rights)
          | None ->
              order := g :: !order;
              Hashtbl.replace groups g ([ cs ], [])
        end)
      choices;
    let untouched_right = ref [] in
    for r = Array.length eb - 1 downto 0 do
      let g = find (n_dists + r) in
      match Hashtbl.find_opt groups g with
      | Some (dists, rights) -> Hashtbl.replace groups g (dists, r :: rights)
      | None -> untouched_right := M.embed eb.(r) :: !untouched_right
    done;
    (* 5. Untouched probability nodes by pointer, untouched source children
       certain, and the groups' mixtures. *)
    let untouched =
      List.filteri (fun d _ -> not touched.(d)) content
      |> List.map (fun (dist : P.dist) ->
             (* whitespace text is dropped, as a merge drops it *)
             if List.for_all (fun (c : P.choice) -> List.for_all is_elem c.P.nodes) dist.P.choices
             then dist
             else P.dist (List.map (fun (c : P.choice) -> { c with P.nodes = elems c }) dist.P.choices))
    in
    let mixtures =
      List.concat_map
        (fun g ->
          let dists, rights = Hashtbl.find groups g in
          group cfg trace tag ~count_b
            ~alternatives:(fun n -> alternatives.(P.Table.find index n))
            (List.rev dists) (Array.of_list rights) eb)
        (List.rev !order)
    in
    untouched
    @ (match !untouched_right with [] -> [] | nodes -> [ P.certain nodes ])
    @ mixtures

  (* One group: its probability nodes' choice combinations, each merged
     with the group's source children, mixed into one probability node. *)
  and group cfg trace tag ~count_b ~alternatives dists rights eb : P.dist list =
    (* A possibility expands into the worlds of its split children; the
       combinations are counted before any is built. *)
    let product f l = List.fold_left (fun acc x -> acc *. f x) 1. l in
    let count cs =
      List.fold_left
        (fun acc (_, ns) ->
          acc +. product (fun n -> float_of_int (List.length (alternatives n))) ns)
        0. cs
    in
    if product count dists > float_of_int cfg.max_possibilities then too_large cfg;
    let expanded cs =
      List.concat_map
        (fun ((c : P.choice), ns) ->
          List.map
            (fun (q, vs) -> (c.P.prob *. q, vs))
            (M.cross (List.map (fun n -> List.map (fun (p, v) -> (p, [ v ])) (alternatives n)) ns)))
        cs
    in
    let combos = Obs.Trace.with_span "enumerate" (fun () -> M.cross (List.map expanded dists)) in
    let local = Array.make (Array.length eb) (-1) in
    Array.iteri (fun j r -> local.(r) <- j) rights;
    let right_trees = Array.map (fun r -> eb.(r)) rights in
    let score (vs : vertex array) ga gb =
      let column = Array.make (Array.length rights) (-1) in
      Array.iteri (fun j r -> column.(r) <- j) gb;
      let edges =
        List.concat
          (List.mapi
             (fun i a ->
               List.filter_map
                 (fun (r, prob) ->
                   let j = column.(local.(r)) in
                   if j < 0 then None else Some { Matching.left = i; right = j; prob })
                 vs.(a).edges)
             (Array.to_list ga))
      in
      { Matching.n_left = Array.length ga; n_right = Array.length gb; edges }
    in
    let contents =
      List.map
        (fun (q, vs) ->
          tick cfg;
          let vs = Array.of_list vs in
          (q, M.children cfg trace tag (vertices cfg trace) ~count_b ~score:(score vs) vs right_trees))
        combos
    in
    match contents with
    | [ (1., content) ] -> content
    | contents ->
        let size (_, content) =
          product (fun (d : P.dist) -> float_of_int (List.length d.P.choices)) content
        in
        if List.fold_left (fun acc c -> acc +. size c) 0. contents
           > float_of_int cfg.max_possibilities
        then too_large cfg;
        let possibilities =
          List.concat_map
            (fun (q, content) ->
              scale q
                (M.cross
                   (List.map
                      (fun (d : P.dist) ->
                        List.map (fun (c : P.choice) -> (c.P.prob, c.P.nodes)) d.P.choices)
                      content)))
            contents
        in
        [ P.dist (List.map (fun (w, nodes) -> P.choice ~prob:w nodes) possibilities) ]

  and vertices cfg trace : vertex M.left =
    {
      M.tag_of = (fun v -> tag_of v.node);
      embed_l = (fun v -> v.node);
      merge_l =
        (fun v s ->
          memo v.merged s @@ fun () ->
          match v.world with
          | Some t -> M.merge cfg trace t s
          | None -> fold_elem cfg trace v.node s);
      reconcile_l =
        (fun v s ->
          memo v.reconciled s @@ fun () ->
          match v.world with
          | Some t -> if Tree.deep_equal t s then [ (1., v.node) ] else M.merge cfg trace t s
          | None ->
              let ws = List.map (fun (p, t) -> (p, t, Tree.deep_equal t s)) (Lazy.force v.worlds) in
              if List.for_all (fun (_, _, eq) -> not eq) ws then fold_elem cfg trace v.node s
              else if List.for_all (fun (_, _, eq) -> eq) ws then [ (1., v.node) ]
              else
                mix
                  (List.concat_map
                     (fun (p, t, eq) ->
                       if eq then [ (p, M.embed t) ] else scale p (M.merge cfg trace t s))
                     ws));
    }

  let run cfg trace (doc : P.doc) (source : Tree.t) : P.doc =
    let tb =
      match Tree.name source with
      | Some t -> t
      | None -> raise (Run_error (Root_mismatch ("#text", "#text")))
    in
    let choices =
      List.concat_map
        (fun (c : P.choice) ->
          match c.P.nodes with
          | [ (P.Elem (ta, _, _) as root) ] ->
              if ta <> tb then raise (Run_error (Root_mismatch (ta, tb)));
              List.map
                (fun (w, n) -> P.choice ~prob:(c.P.prob *. w) [ n ])
                (fold_elem cfg trace root source)
          | [ P.Text _ ] -> raise (Run_error (Root_mismatch ("#text", "#text")))
          | _ -> raise (Run_error (Root_mismatch ("#forest", tb))))
        (live doc)
    in
    Imprecise_pxml.Compact.compact (P.dist choices)
end

let integrate_incremental cfg doc source =
  Obs.Metrics.incr c_runs;
  if cfg.jobs > 1 then Obs.Metrics.incr c_par_runs;
  let trace = new_trace () in
  recorded ~op:"integrate.incremental" @@ fun () ->
  run_catching (fun () ->
      let doc = Fold.run cfg trace doc source in
      note_trace trace;
      doc)
