module Xml = Imprecise_xml

type node =
  | Elem of Xml.Tree.name * (Xml.Tree.name * string) list * dist list
  | Text of string

and dist = { choices : choice list; mutable shape : int }

and choice = { prob : float; nodes : node list }

type doc = dist

let epsilon = 1e-9

exception Invalid of string

(* Both tests are written as "not within": every comparison with NaN is
   false, so a NaN probability fails them rather than slipping through. *)
let check_dist choices =
  if choices = [] then raise (Invalid "probability node with no possibilities");
  let sum =
    List.fold_left
      (fun acc c ->
        if not (c.prob >= -.epsilon && c.prob <= 1. +. epsilon) then
          raise (Invalid (Fmt.str "possibility probability %g out of [0,1]" c.prob));
        acc +. c.prob)
      0. choices
  in
  if not (Float.abs (sum -. 1.) <= 1e-6) then
    raise (Invalid (Fmt.str "possibility probabilities sum to %g, not 1" sum))

let dist_unchecked choices = { choices; shape = -1 }

let dist choices =
  check_dist choices;
  dist_unchecked choices

let choice ~prob nodes = { prob; nodes }

let certain nodes = dist_unchecked [ { prob = 1.; nodes } ]

let elem ?(attrs = []) tag content = Elem (tag, attrs, content)

let text s = Text s

let rec of_tree t =
  match t with
  | Xml.Tree.Text s -> Text s
  | Xml.Tree.Element (tag, attrs, []) -> Elem (tag, attrs, [])
  | Xml.Tree.Element (tag, attrs, children) ->
      Elem (tag, attrs, [ certain (List.map of_tree children) ])

let doc_of_tree t = certain [ of_tree t ]

let is_certain_choice_list = function
  | [ { prob; _ } ] -> Float.abs (prob -. 1.) <= 1e-6
  | _ -> false

let rec is_certain_node = function
  | Text _ -> true
  | Elem (_, _, content) -> List.for_all is_certain_dist content

and is_certain_dist d =
  is_certain_choice_list d.choices
  && List.for_all is_certain_node (List.hd d.choices).nodes

let is_certain = is_certain_dist

let rec node_to_tree = function
  | Text s -> Xml.Tree.Text s
  | Elem (tag, attrs, content) ->
      Xml.Tree.Element (tag, attrs, List.concat_map dist_to_trees content)

and dist_to_trees d =
  match d.choices with
  | [ { prob; nodes } ] when Float.abs (prob -. 1.) <= 1e-6 ->
      List.map node_to_tree nodes
  | _ -> raise (Invalid "to_tree_exn: document is not certain")

let to_tree_exn d = dist_to_trees d

let validate d =
  let rec check_node = function
    | Text _ -> ()
    | Elem (_, _, content) -> List.iter check_d content
  and check_d d =
    check_dist d.choices;
    List.iter (fun c -> List.iter check_node c.nodes) d.choices
  in
  try
    check_d d;
    Ok ()
  with Invalid msg -> Error msg

type stats = {
  elements : int;
  texts : int;
  prob_nodes : int;
  poss_nodes : int;
}

let stats d =
  let elements = ref 0
  and texts = ref 0
  and prob_nodes = ref 0
  and poss_nodes = ref 0 in
  let rec node = function
    | Text _ -> incr texts
    | Elem (_, _, content) ->
        incr elements;
        List.iter dist content
  and dist d =
    incr prob_nodes;
    List.iter
      (fun c ->
        incr poss_nodes;
        List.iter node c.nodes)
      d.choices
  in
  dist d;
  { elements = !elements; texts = !texts; prob_nodes = !prob_nodes; poss_nodes = !poss_nodes }

let node_count d =
  let s = stats d in
  s.elements + s.texts + s.prob_nodes + s.poss_nodes

let world_count d =
  let rec node = function
    | Text _ -> 1.
    | Elem (_, _, content) -> List.fold_left (fun acc d -> acc *. dist d) 1. content
  and dist d =
    List.fold_left
      (fun acc c -> acc +. List.fold_left (fun a n -> a *. node n) 1. c.nodes)
      0. d.choices
  in
  dist d

let world_count_int d =
  let overflow = ref false in
  let mul a b =
    if a = 0 || b = 0 then 0
    else if a > max_int / b then begin
      overflow := true;
      max_int
    end
    else a * b
  in
  let add a b =
    if a > max_int - b then begin
      overflow := true;
      max_int
    end
    else a + b
  in
  let rec node = function
    | Text _ -> 1
    | Elem (_, _, content) -> List.fold_left (fun acc d -> mul acc (dist d)) 1 content
  and dist d =
    List.fold_left
      (fun acc c -> add acc (List.fold_left (fun a n -> mul a (node n)) 1 c.nodes))
      0 d.choices
  in
  let n = dist d in
  if !overflow then None else Some n

(* Physical-equality fast paths: on shared subtrees (a decoded .ipx frame
   rebuilds its sharing physically) deep equality is a pointer check; on
   everything else they only add one comparison. *)
let rec equal_node a b =
  a == b
  ||
  match a, b with
  | Text x, Text y -> x = y
  | Elem (t1, a1, c1), Elem (t2, a2, c2) ->
      t1 = t2 && a1 = a2 && List.equal equal_dist c1 c2
  | Text _, Elem _ | Elem _, Text _ -> false

and equal_dist a b = a == b || List.equal equal_choice a.choices b.choices

and equal_choice a b =
  a == b
  || Float.abs (a.prob -. b.prob) <= epsilon && List.equal equal_node a.nodes b.nodes

let equal = equal_dist

(* ---- shape hashes and the structural node table ------------------------ *)

let mix h x = (h * 16777619) lxor x

(* Tags, attributes, text and nesting, not probabilities: choices that
   [equal_node] merges up to epsilon hash alike. A dist's hash is filled on
   first use from its nodes' hashes, which read their content dists' cached
   hashes, so each dist is hashed once however often it occurs. Two domains
   filling one dist at once write the same int. [Hashtbl.hash] on the mixed
   int spreads it over all bits. *)
let rec hash_node = function
  | Text s -> Hashtbl.hash (mix 3 (Hashtbl.hash s))
  | Elem (tag, attrs, content) ->
      let h =
        List.fold_left
          (fun h (k, v) -> mix (mix h (Hashtbl.hash k)) (Hashtbl.hash v))
          (mix 5 (Hashtbl.hash tag)) attrs
      in
      Hashtbl.hash (List.fold_left (fun h d -> mix h (hash_dist d)) h content)

and hash_dist d =
  if d.shape >= 0 then d.shape
  else begin
    let nodes h c = mix (List.fold_left (fun h n -> mix h (hash_node n)) h c.nodes) 11 in
    let h = Hashtbl.hash (List.fold_left nodes 17 d.choices) in
    d.shape <- h;
    h
  end

(* Structural equality with probabilities compared bit for bit: nodes it
   equates give bit-identical results under any computation. Filled hashes
   that differ settle a pair of dists at once. *)
let rec same_node a b =
  a == b
  ||
  match a, b with
  | Text x, Text y -> String.equal x y
  | Elem (t1, a1, c1), Elem (t2, a2, c2) ->
      String.equal t1 t2
      && List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2) a1 a2
      && List.equal same_dist c1 c2
  | Text _, Elem _ | Elem _, Text _ -> false

and same_dist a b =
  a == b
  || (a.shape < 0 || b.shape < 0 || a.shape = b.shape)
     && List.equal
          (fun a b ->
            a == b
            || Int64.equal (Int64.bits_of_float a.prob) (Int64.bits_of_float b.prob)
               && List.equal same_node a.nodes b.nodes)
          a.choices b.choices

module Table = struct
  include Hashtbl.Make (struct
    type t = node

    let equal = same_node

    let hash = hash_node
  end)

  let memo f =
    let tbl = create 64 in
    fun n ->
      match find_opt tbl n with
      | Some v -> v
      | None ->
          let v = f n in
          add tbl n v;
          v
end

let rec pp_node ppf = function
  | Text s -> Fmt.pf ppf "%S" s
  | Elem (tag, _, content) ->
      Fmt.pf ppf "@[<hv 2><%s>%a@]" tag Fmt.(list ~sep:sp pp) content

and pp ppf d =
  let pp_choice ppf c =
    Fmt.pf ppf "@[<hv 2>o[%.3g]%a@]" c.prob Fmt.(list ~sep:sp pp_node) c.nodes
  in
  Fmt.pf ppf "@[<hv 2>v(%a)@]" Fmt.(list ~sep:(any " | ") pp_choice) d.choices
