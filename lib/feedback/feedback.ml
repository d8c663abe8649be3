module Xml = Imprecise_xml
module Pxml = Imprecise_pxml.Pxml
module Worlds = Imprecise_pxml.Worlds
module Compact = Imprecise_pxml.Compact
module Naive = Imprecise_pquery.Naive
module Direct = Imprecise_pquery.Direct
module Obs = Imprecise_obs.Obs

type error = Too_many_worlds of float | Contradiction | Bad_query of string

let pp_error ppf = function
  | Too_many_worlds n -> Fmt.pf ppf "document has %g worlds; too many to condition" n
  | Contradiction -> Fmt.string ppf "assertion has probability 0 in this document"
  | Bad_query msg -> Fmt.pf ppf "query parse error: %s" msg

let c_direct = Obs.Metrics.counter "feedback.path.direct"

let c_enumerate = Obs.Metrics.counter "feedback.path.enumerate"

let parsed query k =
  match Imprecise_xpath.Parser.parse query with
  | Error msg -> Error (Bad_query msg)
  | Ok expr -> k expr

(* Every query in Direct's fragment takes the structural route: one walk of
   the document, no world enumeration. Anything else — count(...), or the
   data-dependent P005/P006 rejections — enumerates, as [Pquery.rank]'s
   [Auto] would. A returned error is the op's outcome. *)
let routed op ~query ~direct ~enumerate =
  Obs.Trace.op op ~detail:query @@ fun () ->
  let result =
    parsed query @@ fun expr ->
    let path counter name =
      Obs.Metrics.incr counter;
      Obs.Trace.note "path" (Obs.Json.String name)
    in
    match direct expr with
    | posterior -> (
        path c_direct "direct";
        match posterior with
        | Some doc -> Ok (Compact.compact doc)
        | None -> Error Contradiction)
    | exception Direct.Unsupported _ ->
        path c_enumerate "enumerate";
        enumerate expr
  in
  (match result with
  | Error e -> Obs.Trace.outcome (Fmt.str "error:%a" pp_error e)
  | Ok _ -> ());
  result

let condition ?(limit = 200_000.) doc keep =
  let combos = Pxml.world_count doc in
  if combos > limit then Error (Too_many_worlds combos)
  else begin
    let kept = List.filter (fun (p, forest) -> p > 0. && keep forest) (Worlds.merged doc) in
    let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. kept in
    if total <= 0. then Error Contradiction
    else
      let choices =
        List.map
          (fun (p, forest) -> Pxml.choice ~prob:(p /. total) (List.map Pxml.of_tree forest))
          kept
      in
      Ok (Compact.compact (Pxml.dist choices))
  end

let assert_answer ?limit doc ~query ~value ~correct =
  routed "feedback.assert" ~query
    ~direct:(fun expr -> Direct.condition doc expr ~value ~present:correct)
    ~enumerate:(fun expr ->
      condition ?limit doc (fun forest ->
          let present = List.mem value (Naive.answer_in_world forest expr) in
          present = correct))

let certainty ?(limit = 200_000.) doc =
  let combos = Pxml.world_count doc in
  if combos > limit then 0.
  else match Worlds.merged doc with [] -> 0. | (p, _) :: _ -> p

(* ---- structure-preserving pruning ---------------------------------------- *)

(* Address of a probability node: from the enclosing probability node, enter
   choice [choice], its regular node [node] (an element), and that element's
   content entry [dist]. The root probability node has the empty path. *)
type step = { choice : int; node : int; dist : int }

let rec dist_paths prefix (d : Pxml.dist) acc =
  let acc = List.rev prefix :: acc in
  List.fold_left
    (fun acc (ci, (c : Pxml.choice)) ->
      List.fold_left
        (fun acc (ni, n) ->
          match n with
          | Pxml.Text _ -> acc
          | Pxml.Elem (_, _, content) ->
              List.fold_left
                (fun acc (di, d') ->
                  dist_paths ({ choice = ci; node = ni; dist = di } :: prefix) d' acc)
                acc
                (List.mapi (fun i d' -> (i, d')) content))
        acc
        (List.mapi (fun i n -> (i, n)) c.Pxml.nodes))
    acc
    (List.mapi (fun i c -> (i, c)) d.Pxml.choices)

let nth_opt = List.nth_opt

(* The probability node at [path] in the document as it is now. *)
let rec dist_at (d : Pxml.dist) = function
  | [] -> Some d
  | s :: rest -> (
      match nth_opt d.Pxml.choices s.choice with
      | None -> None
      | Some c -> (
          match nth_opt c.Pxml.nodes s.node with
          | Some (Pxml.Elem (_, _, content)) ->
              Option.bind (nth_opt content s.dist) (fun d -> dist_at d rest)
          | None | Some (Pxml.Text _) -> None))

(* Rebuild the document with the probability node at [path] replaced; [None]
   when the path no longer exists (an earlier prune removed it). *)
let rec replace_dist (d : Pxml.dist) path (new_dist : Pxml.dist) : Pxml.dist option =
  match path with
  | [] -> Some new_dist
  | s :: rest -> (
      match nth_opt d.Pxml.choices s.choice with
      | None -> None
      | Some c -> (
          match nth_opt c.Pxml.nodes s.node with
          | None | Some (Pxml.Text _) -> None
          | Some (Pxml.Elem (tag, attrs, content)) -> (
              match nth_opt content s.dist with
              | None -> None
              | Some inner -> (
                  match replace_dist inner rest new_dist with
                  | None -> None
                  | Some inner' ->
                      let content' =
                        List.mapi (fun i d' -> if i = s.dist then inner' else d') content
                      in
                      let nodes' =
                        List.mapi
                          (fun i n ->
                            if i = s.node then Pxml.Elem (tag, attrs, content') else n)
                          c.Pxml.nodes
                      in
                      let choices' =
                        List.mapi
                          (fun i (c' : Pxml.choice) ->
                            if i = s.choice then { c' with Pxml.nodes = nodes' } else c')
                          d.Pxml.choices
                      in
                      Some (Pxml.dist_unchecked choices')))))

let eps = Direct.eps

(* One hypothetical [Pquery.rank] per possibility of every probability
   node, in two rounds. *)
let prune_by_ranks doc ~query ~value ~correct =
  parsed query @@ fun _ ->
  let module Pquery = Imprecise_pquery.Pquery in
  let module Answer = Imprecise_pquery.Answer in
  let answer_prob doc =
    match Pquery.rank doc query with
    | answers ->
        Some
          (match List.find_opt (fun (a : Answer.t) -> a.Answer.value = value) answers with
          | Some a -> a.Answer.prob
          | None -> 0.)
    | exception Pquery.Cannot_answer _ -> None
  in
  (* A possibility is deleted when choosing it makes the assertion certainly
     false: asserted-present but P = 0, or asserted-absent but P = 1. *)
  let choice_impossible doc path (c : Pxml.choice) =
    match replace_dist doc path (Pxml.certain c.Pxml.nodes) with
    | None -> false
    | Some hyp -> (
        match answer_prob hyp with
        | None -> false
        | Some p -> if correct then p <= eps else p >= 1. -. eps)
  in
  let exception Contradicted in
  let prune_round doc =
    let changed = ref false in
    let doc = ref doc in
    List.iter
      (fun path ->
        (* the node as earlier prunes of this round left it, not as the
           round found it: writing back stale choices would undo the
           prunes below it *)
        match dist_at !doc path with
        | Some d when List.length d.Pxml.choices > 1 ->
          let kept =
            List.filter (fun c -> not (choice_impossible !doc path c)) d.Pxml.choices
          in
          if kept = [] then raise Contradicted;
          if List.length kept < List.length d.Pxml.choices then begin
            let total = List.fold_left (fun acc (c : Pxml.choice) -> acc +. c.prob) 0. kept in
            let renorm =
              List.map (fun (c : Pxml.choice) -> { c with Pxml.prob = c.prob /. total }) kept
            in
            match replace_dist !doc path (Pxml.dist_unchecked renorm) with
            | Some doc' ->
                doc := doc';
                changed := true
            | None -> ()
          end
        | Some _ | None -> ())
      (* Deepest first: pruning a probability node renumbers choices inside
         it, which would invalidate paths routing through it — its
         descendants are therefore handled before it, and sibling subtrees
         are unaffected. *)
      (List.sort
         (fun p1 p2 -> Int.compare (List.length p2) (List.length p1))
         (dist_paths [] !doc []));
    (!doc, !changed)
  in
  let rec go k doc =
    if k <= 0 then Ok (Compact.compact doc)
    else
      match prune_round doc with
      | doc', true -> go (k - 1) doc'
      | doc', false -> Ok (Compact.compact doc')
      | exception Contradicted -> Error Contradiction
  in
  (* The assertion itself may already have probability 0 — e.g. on a fully
     certain document, where there is no possibility left to prune. *)
  match answer_prob doc with
  | Some p when (correct && p <= eps) || ((not correct) && p >= 1. -. eps) ->
      Error Contradiction
  | _ -> go 2 doc

let prune doc ~query ~value ~correct =
  routed "feedback.prune" ~query
    ~direct:(fun expr -> Direct.prune doc expr ~value ~present:correct)
    ~enumerate:(fun _ -> prune_by_ranks doc ~query ~value ~correct)
