let prune_threshold = 1e-12

(* Fuse runs of certain probability nodes in an element's content and drop
   certain-empty ones. Distinct uncertain probability nodes must remain
   separate: they are independent choices. A lone certain node of
   probability exactly 1 is kept as it is, so content that needs no change
   comes back as the same list. *)
let fuse_content (content : Pxml.dist list) : Pxml.dist list =
  let flush pending acc =
    match pending with
    | [ ({ Pxml.choices = [ { prob = 1.; nodes = _ :: _ } ]; _ } as d) ] -> d :: acc
    | _ -> (
        let nodes (d : Pxml.dist) = (List.hd d.choices).nodes in
        match List.concat_map nodes (List.rev pending) with
        | [] -> acc
        | nodes -> Pxml.certain nodes :: acc)
  in
  let rec go pending acc = function
    | [] -> List.rev (flush pending acc)
    | (d : Pxml.dist) :: rest ->
        if Pxml.is_certain_choice_list d.choices then go (d :: pending) acc rest
        else go [] (d :: flush pending acc) rest
  in
  go [] [] content

module Forests = Hashtbl.Make (struct
  type t = Pxml.node list

  let equal = List.equal Pxml.equal_node

  let hash nodes =
    Hashtbl.hash (List.fold_left (fun h n -> Pxml.mix h (Pxml.hash_node n)) 7 nodes)
end)

let first_equal (choices : Pxml.choice list) =
  let firsts = Forests.create (List.length choices) in
  List.mapi
    (fun i (c : Pxml.choice) ->
      match Forests.find_opt firsts c.nodes with
      | Some j -> Some j
      | None ->
          Forests.add firsts c.nodes i;
          None)
    choices

(* Sum each choice into the first equal one, in first-seen order. *)
let merge_equal = function
  | ([] | [ _ ]) as choices -> choices
  | choices ->
      let firsts = Array.of_list (first_equal choices) in
      let sums = Array.of_list (List.map (fun (c : Pxml.choice) -> c.prob) choices) in
      Array.iteri (fun i -> Option.iter (fun j -> sums.(j) <- sums.(j) +. sums.(i))) firsts;
      if Array.for_all Option.is_none firsts then choices
      else
        List.filteri (fun i _ -> firsts.(i) = None)
          (List.mapi (fun i (c : Pxml.choice) -> { c with prob = sums.(i) }) choices)

let compact (d : Pxml.doc) : Pxml.doc =
  let memo = Pxml.Table.create 64 in
  (* a changed node equal to an earlier output is that output *)
  let share = Pxml.Table.memo Fun.id in
  let rec node (n : Pxml.node) =
    match n with
    | Pxml.Text _ -> n
    | Pxml.Elem (tag, attrs, content) -> (
        match Pxml.Table.find_opt memo n with
        | Some n' -> n'
        | None ->
            let content' = fuse_content (List.map dist content) in
            let n' =
              if List.equal ( == ) content content' then n
              else share (Pxml.Elem (tag, attrs, content'))
            in
            Pxml.Table.add memo n n';
            n')
  and dist (d : Pxml.dist) =
    let choices =
      List.map
        (fun (c : Pxml.choice) ->
          let nodes = List.map node c.nodes in
          if List.equal ( == ) nodes c.nodes then c else { c with nodes })
        d.choices
    in
    (* "not at most" keeps a NaN choice, so the mass below carries it *)
    let kept = List.filter (fun (c : Pxml.choice) -> not (c.prob <= prune_threshold)) choices in
    let merged = merge_equal (if kept = [] then choices else kept) in
    let total = List.fold_left (fun acc (c : Pxml.choice) -> acc +. c.prob) 0. merged in
    if Float.is_nan total then raise (Pxml.Invalid "possibility probability is NaN");
    let normalised =
      if total > 0. && Float.abs (total -. 1.) > Pxml.epsilon then
        List.map (fun (c : Pxml.choice) -> { c with prob = c.prob /. total }) merged
      else merged
    in
    if List.equal ( == ) normalised d.choices then d else Pxml.dist_unchecked normalised
  in
  dist d

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
  Pxml.dist_unchecked
    (List.map
       (fun (c : Pxml.choice) ->
         { Pxml.prob = c.prob /. total; nodes = List.map (prune_unlikely_node threshold) c.nodes })
       kept)

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
