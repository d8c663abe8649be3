let prune_threshold = 1e-12

let is_certain_unit (d : Pxml.dist) =
  match d.choices with
  | [ { prob; _ } ] -> Float.abs (prob -. 1.) <= 1e-6
  | _ -> false

(* Fuse runs of certain probability nodes in an element's content and drop
   certain-empty ones. Distinct uncertain probability nodes must remain
   separate: they are independent choices. *)
let fuse_content (content : Pxml.dist list) : Pxml.dist list =
  let flush pending acc =
    match List.concat (List.rev pending) with
    | [] -> acc
    | nodes -> Pxml.certain nodes :: acc
  in
  let rec go pending acc = function
    | [] -> List.rev (flush pending acc)
    | d :: rest ->
        if is_certain_unit d then
          go ((List.hd d.Pxml.choices).nodes :: pending) acc rest
        else go [] (d :: flush pending acc) rest
  in
  go [] [] content

let rec compact_node (n : Pxml.node) : Pxml.node =
  match n with
  | Pxml.Text _ -> n
  | Pxml.Elem (tag, attrs, content) ->
      let content = List.map compact_dist content in
      Pxml.Elem (tag, attrs, fuse_content content)

and compact_dist (d : Pxml.dist) : Pxml.dist =
  let choices =
    List.map
      (fun (c : Pxml.choice) -> { c with Pxml.nodes = List.map compact_node c.nodes })
      d.choices
  in
  (* "not at most" keeps a NaN choice, so the mass below carries it *)
  let kept = List.filter (fun (c : Pxml.choice) -> not (c.prob <= prune_threshold)) choices in
  let kept = if kept = [] then choices else kept in
  (* Merge structurally equal possibilities. *)
  let merged =
    List.fold_left
      (fun acc (c : Pxml.choice) ->
        let rec insert = function
          | [] -> [ c ]
          | (c' : Pxml.choice) :: rest ->
              if List.equal Pxml.equal_node c'.nodes c.nodes then
                { c' with prob = c'.prob +. c.prob } :: rest
              else c' :: insert rest
        in
        insert acc)
      [] kept
  in
  let total = List.fold_left (fun acc (c : Pxml.choice) -> acc +. c.prob) 0. merged in
  if Float.is_nan total then raise (Pxml.Invalid "possibility probability is NaN");
  let normalised =
    if total > 0. && Float.abs (total -. 1.) > Pxml.epsilon then
      List.map (fun (c : Pxml.choice) -> { c with Pxml.prob = c.prob /. total }) merged
    else merged
  in
  { Pxml.choices = normalised }

let rec compact (d : Pxml.doc) : Pxml.doc =
  let d' = compact_dist d in
  if Pxml.equal d d' then d' else compact d'

let rec prune_unlikely_node threshold (n : Pxml.node) : Pxml.node =
  match n with
  | Pxml.Text _ -> n
  | Pxml.Elem (tag, attrs, content) ->
      Pxml.Elem (tag, attrs, List.map (prune_unlikely_dist threshold) content)

and prune_unlikely_dist threshold (d : Pxml.dist) : Pxml.dist =
  let kept = List.filter (fun (c : Pxml.choice) -> c.prob >= threshold) d.choices in
  let kept =
    if kept = [] then
      (* keep the most likely possibility rather than emptying the node *)
      [
        List.fold_left
          (fun (best : Pxml.choice) (c : Pxml.choice) -> if c.prob > best.prob then c else best)
          (List.hd d.choices) (List.tl d.choices);
      ]
    else kept
  in
  let total = List.fold_left (fun acc (c : Pxml.choice) -> acc +. c.prob) 0. kept in
  {
    Pxml.choices =
      List.map
        (fun (c : Pxml.choice) ->
          {
            Pxml.prob = c.prob /. total;
            nodes = List.map (prune_unlikely_node threshold) c.nodes;
          })
        kept;
  }

let prune_unlikely ~threshold d = compact (prune_unlikely_dist threshold d)

(* Budgeted reduction: escalate the prune threshold geometrically until the
   document fits. Threshold 1.0 is the floor of the search space — at that
   point every probability node keeps only its argmax possibility (one
   world), which is the smallest document [prune_unlikely] can produce, so
   the loop always terminates even on unsatisfiable budgets. *)
let prune_to_budget ?node_budget ?world_budget (d : Pxml.doc) : Pxml.doc =
  let within (d : Pxml.doc) =
    (match node_budget with
    | Some b -> Pxml.node_count d <= b
    | None -> true)
    &&
    match world_budget with
    | Some b -> ( match Pxml.world_count_int d with Some w -> w <= b | None -> false)
    | None -> true
  in
  let d = compact d in
  if within d then d
  else
    let rec go threshold d =
      let d' = prune_unlikely ~threshold d in
      if within d' || threshold >= 1. then d'
      else go (Float.min 1. (threshold *. 4.)) d'
    in
    go 1e-6 d
