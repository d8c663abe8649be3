module Xml = Imprecise_xml
module Pxml = Imprecise_pxml.Pxml
module Worlds = Imprecise_pxml.Worlds
module Ast = Imprecise_xpath.Ast
module Eval = Imprecise_xpath.Eval

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* ---- query decomposition ------------------------------------------------ *)

module Fragment = Imprecise_xpath.Fragment

type plan = Fragment.shape = {
  prefix : (bool * Ast.node_test) list;
      (** structural steps before the binder; bool = descendant separator *)
  binder : bool * Ast.node_test;  (** the binder step's separator and test *)
  local : Ast.expr;  (** evaluated inside each occurrence's local worlds *)
}

(* The syntactic admission test lives in Imprecise_xpath.Fragment — one
   definition shared with the static planner, so a route prediction of
   `Direct can only be defeated by the data-dependent checks below (which
   the planner also mirrors, against the path summary). *)
let plan_of_expr (e : Ast.expr) : plan =
  match Fragment.classify e with
  | Ok shape -> shape
  | Error { Fragment.code; detail } -> unsupported "%s: %s" code detail

let supported e =
  match plan_of_expr e with _ -> true | exception Unsupported _ -> false

(* ---- emission trees ------------------------------------------------------ *)

(* The emission walk keeps pointers to the Pxml it stands for, so the folds
   below can rebuild the document as well as rank it. A probability node's
   tree has one entry per choice, in order: its probability and the trees
   of its nodes that can lead to an occurrence, in document order. *)
type edist = (float * etree list) list

and etree =
  | Eelem of Pxml.node * edist list
      (** an element on a prefix path: one tree per content dist *)
  | Eoccur of Pxml.node * (string * float) list
      (** an occurrence of the binder: its local value distribution *)

(* The values the local expression emits in one local world. *)
let values_at local_expr tree =
  let root = Eval.root_node tree in
  match Eval.eval_at ~root root local_expr with
  | Eval.Nodeset items -> List.sort_uniq String.compare (List.map Eval.string_of_item items)
  | v -> [ Eval.string_value v ]

(* An occurrence's local worlds, each with the values it emits. *)
let local_worlds local_expr (node : Pxml.node) =
  Seq.map (fun (q, tree) -> (q, tree, values_at local_expr tree)) (Worlds.enumerate_node node)

let local_distribution local_expr (node : Pxml.node) : (string * float) list =
  let local_limit = Fragment.default_local_limit in
  let count = Pxml.world_count (Pxml.certain [ node ]) in
  if count > local_limit then
    unsupported "P006: occurrence subtree has %g local worlds (limit %g)" count
      local_limit;
  let tbl = Hashtbl.create 8 in
  Seq.iter
    (fun (q, tree) ->
      List.iter
        (fun v ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt tbl v) in
          Hashtbl.replace tbl v (prev +. q))
        (values_at local_expr tree))
    (Worlds.enumerate_node node);
  Hashtbl.fold (fun v p acc -> (v, p) :: acc) tbl []

let build_etree (plan : plan) (doc : Pxml.doc) : edist =
  (* integration shares subtrees across possibilities: summarise each
     distinct subtree once *)
  let summarise = Pxml.Table.memo (local_distribution plan.local) in
  let automaton = Fragment.automaton plan in
  let advance states tag = Fragment.advance automaton states tag in
  let rec walk_dist states inside (d : Pxml.dist) : edist =
    List.map
      (fun (c : Pxml.choice) ->
        (c.Pxml.prob, List.filter_map (walk_node states inside) c.Pxml.nodes))
      d.Pxml.choices
  and walk_node states inside (n : Pxml.node) : etree option =
    match n with
    | Pxml.Text _ -> None
    | Pxml.Elem (tag, _, content) ->
        let states', occurrence = advance states tag in
        if occurrence then begin
          if inside then
            unsupported "P005: nested occurrences of the binder element";
          (* Check for nested occurrences below, then summarise locally. *)
          List.iter (fun d -> ignore (walk_dist states' true d)) content;
          Some (Eoccur (n, summarise n))
        end
        else if states' = [] then None
        else Some (Eelem (n, List.map (walk_dist states' inside) content))
  in
  (* The initial state set: at the document node, about to match step 0. *)
  walk_dist Fragment.start false doc

let walk doc expr =
  let plan = plan_of_expr expr in
  (plan, build_etree plan doc)

(* A choice's nodes, each with its tree: [None] for those the walk left
   out (text, or an element no occurrence can lie below). *)
let with_skips nodes ts =
  let rec go nodes ts =
    match (nodes, ts) with
    | [], _ -> []
    | n :: nodes', ((Eelem (m, _) | Eoccur (m, _)) as t) :: ts' when m == n ->
        Some t :: go nodes' ts'
    | _ :: nodes', _ -> None :: go nodes' ts
  in
  go nodes ts

(* ---- ranking: one fold per value ----------------------------------------- *)

module SS = Set.Make (String)

let values_of_edist d =
  let rec go acc = function
    | Eoccur (_, dist) -> List.fold_left (fun acc (v, _) -> SS.add v acc) acc dist
    | Eelem (_, ds) -> List.fold_left go_dist acc ds
  and go_dist acc cs = List.fold_left (fun acc (_, ts) -> List.fold_left go acc ts) acc cs in
  SS.elements (go_dist SS.empty d)

(* P(no occurrence emits v). *)
let rec noemit v = function
  | Eoccur (_, dist) -> 1. -. Option.value ~default:0. (List.assoc_opt v dist)
  | Eelem (_, ds) -> List.fold_left (fun acc d -> acc *. noemit_dist v d) 1. ds

and noemit_dist v cs =
  List.fold_left
    (fun acc (p, ts) -> acc +. (p *. List.fold_left (fun a t -> a *. noemit v t) 1. ts))
    0. cs

let rank_expr doc expr =
  let _, edist = walk doc expr in
  let values = values_of_edist edist in
  Answer.rank
    (List.filter_map
       (fun v ->
         let p = 1. -. noemit_dist v edist in
         if p <= 1e-12 then None else Some { Answer.value = v; prob = p })
       values)

(* ---- conditioning: Bayes on one value's emission ------------------------- *)

(* How a subtree stands to the event E = "some occurrence in it emits v":
   the masses of E and of not-E, each a sum of products; exact possibility
   flags (a positive-probability path reaches an emitting, resp. avoiding,
   local world), which decide zero-mass choices and contradictions instead
   of float thresholds; and the subtree conditioned on either side, built
   on demand. Given E a subtree is a list of disjoint alternatives whose
   weights sum to [emit]; a probability node absorbs them as split
   choices. *)
type 'a side = {
  emit : float;
  avoid : float;
  can_emit : bool;
  can_avoid : bool;
  given_avoid : 'a Lazy.t;
  given_emit : (float * 'a) list Lazy.t;
}

let untouched x =
  {
    emit = 0.;
    avoid = 1.;
    can_emit = false;
    can_avoid = true;
    given_avoid = Lazy.from_val x;
    given_emit = Lazy.from_val [];
  }

(* Independent parts in order (a choice's nodes, an element's content).
   None emits iff every part avoids. Otherwise exactly one part emits
   first: alternative [k] conditions the parts before it on avoiding and
   part [k] on emitting, and shares the later parts unchanged. *)
let sequence (parts : ('a * 'a side) list) : 'a list side =
  if List.for_all (fun (_, s) -> not s.can_emit) parts then untouched (List.map fst parts)
  else
    let emit, avoid =
      List.fold_left
        (fun (emit, avoid) (_, s) -> (emit +. (avoid *. s.emit), avoid *. s.avoid))
        (0., 1.) parts
    in
    let rec alternatives weight avoided = function
      | [] -> []
      | (_, s) :: rest ->
          let here =
            if not s.can_emit then []
            else
              List.map
                (fun (w, x) -> (weight *. w, List.rev_append avoided (x :: List.map fst rest)))
                (Lazy.force s.given_emit)
          in
          if s.can_avoid then
            here @ alternatives (weight *. s.avoid) (Lazy.force s.given_avoid :: avoided) rest
          else here
    in
    {
      emit;
      avoid;
      can_emit = true;
      can_avoid = List.for_all (fun (_, s) -> s.can_avoid) parts;
      given_avoid = lazy (List.map (fun (_, s) -> Lazy.force s.given_avoid) parts);
      given_emit = lazy (alternatives 1. [] parts);
    }

let renormalise weighted =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. weighted in
  Pxml.dist_unchecked (List.map (fun (w, nodes) -> { Pxml.prob = w /. total; nodes }) weighted)

let rec node_side local v (n : Pxml.node) (t : etree option) : Pxml.node side =
  match (t, n) with
  | None, _ -> untouched n
  | Some (Eoccur (_, dist)), Pxml.Elem (tag, attrs, _) ->
      if not (List.mem_assoc v dist) then untouched n
      else
        (* the content becomes one dist over the local worlds on either side *)
        let emitting, avoiding = List.partition (fun (_, _, vs) -> List.mem v vs) (local n) in
        let given worlds =
          Pxml.Elem
            ( tag,
              attrs,
              [
                renormalise
                  (List.map
                     (fun (q, tree, _) -> (q, List.map Pxml.of_tree (Xml.Tree.children tree)))
                     worlds);
              ] )
        in
        let total = List.fold_left (fun acc (q, _, _) -> acc +. q) 0. in
        {
          emit = total emitting;
          avoid = total avoiding;
          can_emit = emitting <> [];
          can_avoid = avoiding <> [];
          given_avoid = lazy (given avoiding);
          given_emit = lazy [ (total emitting, given emitting) ];
        }
  | Some (Eelem (_, ds)), Pxml.Elem (tag, attrs, content) ->
      let s = sequence (List.map2 (fun d t -> (d, dist_side local v d t)) content ds) in
      if not s.can_emit then untouched n
      else
        let elem content = Pxml.Elem (tag, attrs, content) in
        {
          s with
          given_avoid = lazy (elem (Lazy.force s.given_avoid));
          given_emit = lazy (List.map (fun (w, c) -> (w, elem c)) (Lazy.force s.given_emit));
        }
  | Some _, Pxml.Text _ -> invalid_arg "Direct: emission walk out of step"

and dist_side local v (d : Pxml.dist) (cs : edist) : Pxml.dist side =
  let live =
    List.filter_map
      (fun ((c : Pxml.choice), ts) ->
        if c.Pxml.prob > 0. then
          Some
            ( c,
              sequence
                (List.map2
                   (fun n t -> (n, node_side local v n t))
                   c.Pxml.nodes (with_skips c.Pxml.nodes ts)) )
        else None)
      (List.combine d.Pxml.choices (List.map snd cs))
  in
  if List.for_all (fun (_, s) -> not s.can_emit) live then untouched d
  else
    let weigh f =
      List.fold_left (fun acc ((c : Pxml.choice), s) -> acc +. (c.Pxml.prob *. f s)) 0. live
    in
    let emit = weigh (fun s -> s.emit) in
    {
      emit;
      avoid = weigh (fun s -> s.avoid);
      can_emit = true;
      can_avoid = List.exists (fun (_, s) -> s.can_avoid) live;
      given_avoid =
        lazy
          (renormalise
             (List.filter_map
                (fun ((c : Pxml.choice), s) ->
                  if s.can_avoid then Some (c.Pxml.prob *. s.avoid, Lazy.force s.given_avoid)
                  else None)
                live));
      given_emit =
        lazy
          [
            ( emit,
              renormalise
                (List.concat_map
                   (fun ((c : Pxml.choice), s) ->
                     List.map
                       (fun (w, nodes) -> (c.Pxml.prob *. w, nodes))
                       (Lazy.force s.given_emit))
                   live) );
          ];
    }

let condition doc expr ~value ~present =
  let plan, edist = walk doc expr in
  let local = Pxml.Table.memo (fun n -> List.of_seq (local_worlds plan.local n)) in
  let s = dist_side local value doc edist in
  if present then
    if s.can_emit then Some (snd (List.hd (Lazy.force s.given_emit))) else None
  else if s.can_avoid then Some (Lazy.force s.given_avoid)
  else None

(* ---- pruning: hypothetical ranks from inside/outside values -------------- *)

(* [none] is P(no occurrence in the subtree emits v), in {!noemit}'s
   arithmetic. [rebuild a b] is the pruned subtree given its outside
   values: P(no occurrence in the document emits v) = a + b·none, which is
   multilinear in the independent choices, so forcing a choice that turns
   [none] into [n'] turns it into a + b·n'. *)
type 'a pruned = { none : float; rebuild : float -> float -> 'a }

exception Emptied

(* For each i, the product (resp. sum) of every element but the i-th,
   from prefix and suffix folds, so zeros need no division. *)
let all_but op unit (xs : float array) =
  let n = Array.length xs in
  let suffix = Array.make (n + 1) unit in
  for i = n - 1 downto 0 do
    suffix.(i) <- op xs.(i) suffix.(i + 1)
  done;
  let prefix = ref unit in
  Array.init n (fun i ->
      let r = op !prefix suffix.(i + 1) in
      prefix := op !prefix xs.(i);
      r)

(* Independent parts in order: the outside of part i is its sequence's,
   times the other parts' [none]. *)
let prune_sequence (parts : 'a pruned list) : 'a list pruned =
  let nones = Array.of_list (List.map (fun p -> p.none) parts) in
  {
    none = Array.fold_left ( *. ) 1. nones;
    rebuild =
      (fun a b ->
        let rest = all_but ( *. ) 1. nones in
        List.mapi (fun i p -> p.rebuild a (b *. rest.(i))) parts);
  }

(* [map_dists f n] rebuilds [n] bottom-up and replaces its [k]-th
   probability node (pre-order) by [f k d], [d] with its subtrees
   rebuilt. *)
let map_dists f (n : Pxml.node) =
  let k = ref 0 in
  let rec node (n : Pxml.node) =
    match n with
    | Pxml.Text _ -> n
    | Pxml.Elem (tag, attrs, content) -> Pxml.Elem (tag, attrs, List.map dist content)
  and dist (d : Pxml.dist) =
    let i = !k in
    incr k;
    f i
      (Pxml.dist_unchecked
         (List.map
            (fun (c : Pxml.choice) -> { c with Pxml.nodes = List.map node c.Pxml.nodes })
            d.Pxml.choices))
  in
  node n

(* Keep the choices of [d] that are not [doomed], with their nodes rebuilt;
   renormalise when some are deleted. [d] itself when nothing changed. *)
let restrict (d : Pxml.dist) ~doomed ~rebuild =
  let kept =
    List.concat (List.mapi (fun i c -> if doomed i then [] else [ (i, c) ]) d.Pxml.choices)
  in
  if kept = [] then raise Emptied;
  let pruned = List.compare_lengths kept d.Pxml.choices < 0 in
  let total = List.fold_left (fun acc (_, (c : Pxml.choice)) -> acc +. c.Pxml.prob) 0. kept in
  let choices =
    List.map
      (fun (i, (c : Pxml.choice)) ->
        let nodes = rebuild i c.Pxml.nodes in
        if pruned then { Pxml.prob = c.Pxml.prob /. total; nodes }
        else if List.for_all2 ( == ) nodes c.Pxml.nodes then c
        else { c with Pxml.nodes })
      kept
  in
  if (not pruned) && List.for_all2 ( == ) choices d.Pxml.choices then d else Pxml.dist_unchecked choices

let rec has_zero_choice (n : Pxml.node) =
  match n with
  | Pxml.Text _ -> false
  | Pxml.Elem (_, _, content) ->
      List.exists
        (fun (d : Pxml.dist) ->
          List.exists
            (fun (c : Pxml.choice) -> c.Pxml.prob <= 0. || List.exists has_zero_choice c.Pxml.nodes)
            d.Pxml.choices)
        content

(* For every local probability node with a choice to make, P(no local world
   emits v) when each of its choices is forced. *)
let local_hypotheticals local_expr v (n : Pxml.node) =
  let dists = ref [] in
  ignore (map_dists (fun k d -> dists := (k, d) :: !dists; d) n);
  List.filter_map
    (fun (k, (d : Pxml.dist)) ->
      if List.compare_length_with d.Pxml.choices 1 <= 0 then None
      else
        Some
          ( k,
            List.map
              (fun (c : Pxml.choice) ->
                let force i d' =
                  if i = k then Pxml.certain c.Pxml.nodes else d'
                in
                1.
                -. Seq.fold_left
                     (fun acc (q, _, values) -> if List.mem v values then acc +. q else acc)
                     0.
                     (local_worlds local_expr (map_dists force n)))
              d.Pxml.choices ))
    (List.rev !dists)

type ctx = { doomed : float -> bool; hypotheticals : Pxml.node -> (int * float list) list }

let rec prune_node ctx v (n : Pxml.node) (t : etree option) : Pxml.node pruned =
  match (t, n) with
  | None, _ -> { none = 1.; rebuild = (fun _ _ -> n) }
  | Some (Eoccur (_, dist)), _ ->
      {
        none = 1. -. Option.value ~default:0. (List.assoc_opt v dist);
        rebuild =
          (fun a b ->
            (* forcing choices that all have mass cannot make v appear *)
            if (not (List.mem_assoc v dist)) && not (has_zero_choice n) then n
            else
              let doomed =
                List.filter_map
                  (fun (k, nones) ->
                    let flags = List.map (fun n' -> ctx.doomed (a +. (b *. n'))) nones in
                    if List.mem true flags then Some (k, flags) else None)
                  (ctx.hypotheticals n)
              in
              if doomed = [] then n
              else
                map_dists
                  (fun k d ->
                    match List.assoc_opt k doomed with
                    | None -> d
                    | Some flags ->
                        restrict d ~doomed:(List.nth flags) ~rebuild:(fun _ nodes -> nodes))
                  n);
      }
  | Some (Eelem (_, ds)), Pxml.Elem (tag, attrs, content) ->
      let s = prune_sequence (List.map2 (prune_dist ctx v) content ds) in
      {
        none = s.none;
        rebuild =
          (fun a b ->
            let content' = s.rebuild a b in
            if List.for_all2 ( == ) content content' then n else Pxml.Elem (tag, attrs, content'));
      }
  | Some (Eelem _), Pxml.Text _ -> invalid_arg "Direct: emission walk out of step"

and prune_dist ctx v (d : Pxml.dist) (cs : edist) : Pxml.dist pruned =
  let choices =
    Array.of_list
      (List.map2
         (fun (c : Pxml.choice) (_, ts) ->
           let kids = with_skips c.Pxml.nodes ts in
           (c, prune_sequence (List.map2 (prune_node ctx v) c.Pxml.nodes kids)))
         d.Pxml.choices cs)
  in
  let weighted = Array.map (fun ((c : Pxml.choice), s) -> c.Pxml.prob *. s.none) choices in
  let many = Array.length choices > 1 in
  {
    none = Array.fold_left ( +. ) 0. weighted;
    rebuild =
      (fun a b ->
        let others = all_but ( +. ) 0. weighted in
        restrict d
          ~doomed:(fun i -> many && ctx.doomed (a +. (b *. (snd choices.(i)).none)))
          ~rebuild:(fun i _ ->
            let c, s = choices.(i) in
            s.rebuild (a +. (b *. others.(i))) (b *. c.Pxml.prob)));
  }

let eps = 1e-9

(* Delete a choice when forcing it makes the assertion (about) certainly
   false — asserted present but P(v) <= eps, or asserted absent but
   P(v) >= 1 - eps. Every hypothetical is taken on [doc] itself: deleting
   a choice whose hypothetical is 0 cannot lower another's, so one pass
   reaches the fixpoint that repeated passes would. *)
let prune doc expr ~value ~present =
  let plan, edist = walk doc expr in
  let doomed none =
    let p = 1. -. none in
    if present then p <= eps else p >= 1. -. eps
  in
  let ctx =
    {
      doomed;
      hypotheticals = Pxml.Table.memo (local_hypotheticals plan.local value);
    }
  in
  let s = prune_dist ctx value doc edist in
  if doomed s.none then None
  else match s.rebuild 0. 1. with d -> Some d | exception Emptied -> None
