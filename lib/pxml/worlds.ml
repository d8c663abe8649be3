module Xml = Imprecise_xml

type world = float * Xml.Tree.t list

(* Cartesian product of world sequences, concatenating payloads and
   multiplying probabilities. Lazy, and the suffix product is memoized:
   the worlds of [rest] are computed once and replayed for every head
   element, instead of being re-forced per head (which made enumeration
   quadratic in the per-level fan-out). *)
let rec product (seqs : (float * 'a list) Seq.t list) : (float * 'a list) Seq.t =
  match seqs with
  | [] -> Seq.return (1., [])
  | s :: rest ->
      let suffix = Seq.memoize (product rest) in
      Seq.concat_map
        (fun (p, xs) -> Seq.map (fun (q, ys) -> (p *. q, xs @ ys)) suffix)
        s

(* Zero-probability possibilities contribute no mass to any answer;
   expanding them only to filter the resulting worlds later is wasted
   (potentially exponential) work, so they are skipped up front. *)
let live_choices (d : Pxml.dist) =
  List.filter (fun (c : Pxml.choice) -> c.Pxml.prob > 0.) d.Pxml.choices

let rec enumerate_node (n : Pxml.node) : (float * Xml.Tree.t) Seq.t =
  match n with
  | Pxml.Text s -> Seq.return (1., Xml.Tree.Text s)
  | Pxml.Elem (tag, attrs, content) ->
      Seq.map
        (fun (p, children) -> (p, Xml.Tree.Element (tag, attrs, children)))
        (product (List.map enumerate content))

and enumerate (d : Pxml.dist) : world Seq.t =
  Seq.concat_map
    (fun (c : Pxml.choice) ->
      Seq.map
        (fun (p, nodes) -> (c.Pxml.prob *. p, nodes))
        (product (List.map (fun n -> Seq.map (fun (p, t) -> (p, [ t ])) (enumerate_node n)) c.Pxml.nodes)))
    (List.to_seq (live_choices d))

module Budget = Imprecise_resilience.Budget

(* Cooperative cancellation: tick the budget once per produced world, so a
   blown deadline or exhausted world pool stops the consumer at the next
   element instead of at the end of an exponential walk. *)
let guard budget seq =
  match budget with
  | None -> seq
  | Some b ->
      Seq.map
        (fun w ->
          Budget.tick b;
          w)
        seq

let enumerate ?budget d = guard budget (enumerate d)

(* ---- distinct worlds ------------------------------------------------------

   One bottom-up pass over the document. Every element and every
   probability node gets its distinct local worlds, and equal ones merge
   where they arise, so the work is bounded by distinct local worlds, not
   by worlds times document size.

   An element's local world is the id of its canonical form, interned on
   (tag, attributes sorted by name, canonical children). Text stays as
   written until its parent element canonicalises its children as
   [Tree.canonical] does: adjacent texts joined, whitespace-only text
   beside elements dropped, the rest space-normalised. Products associate
   as in [enumerate] ([head *. suffix]), so a world that nothing merges has
   the probability enumeration gives it, to the bit. *)

type item = E of int * Xml.Tree.t | T of string

let equal_item a b =
  match (a, b) with
  | E (i, _), E (j, _) -> i = j
  | T x, T y -> String.equal x y
  | (E _ | T _), _ -> false

let hash_items h items =
  List.fold_left (fun h -> function E (i, _) -> Pxml.mix h i | T s -> Pxml.mix h (Hashtbl.hash s)) h items

module Forests = Hashtbl.Make (struct
  type t = item list

  let equal = List.equal equal_item

  let hash items = Hashtbl.hash (hash_items 7 items)
end)

module Elements = Hashtbl.Make (struct
  type t = string * (string * string) list * item list

  let equal (t1, a1, i1) (t2, a2, i2) =
    String.equal t1 t2 && a1 = a2 && List.equal equal_item i1 i2

  let hash (tag, attrs, items) = Hashtbl.hash (hash_items (Hashtbl.hash (tag, attrs)) items)
end)

(* Sum the probabilities of equal forests, in first-seen order. *)
let merge_forests xs =
  match xs with
  | [] | [ _ ] -> xs
  | _ ->
      let seen = Forests.create 16 in
      let order =
        List.fold_left
          (fun order (p, k) ->
            match Forests.find_opt seen k with
            | Some r ->
                r := !r +. p;
                order
            | None ->
                let r = ref p in
                Forests.add seen k r;
                (r, k) :: order)
          [] xs
      in
      List.rev_map (fun (r, k) -> (!r, k)) order

let product (locals : (float * item list) list list) =
  List.fold_right
    (fun s suffix ->
      List.concat_map (fun (p, xs) -> List.map (fun (q, ys) -> (p *. q, xs @ ys)) suffix) s)
    locals [ (1., []) ]

let blank = String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false)

let tree_of = function E (_, t) -> t | T s -> Xml.Tree.Text s

(* [Tree.canonical]'s treatment of an element's children, on children
   whose elements are canonical already. *)
let canonical_children items =
  let rec join = function
    | T a :: T b :: rest -> join (T (a ^ b) :: rest)
    | x :: rest -> x :: join rest
    | [] -> []
  in
  let items = join items in
  let has_elem = List.exists (function E _ -> true | T _ -> false) items in
  List.filter_map
    (function
      | T s when has_elem && blank s -> None
      | T s -> Some (T (Xml.Tree.normalize_space s))
      | e -> Some e)
    items

let merged d =
  let elements = Elements.create 64 and memo = Pxml.Table.create 64 in
  let intern tag attrs items =
    let items = canonical_children items in
    let key = (tag, attrs, items) in
    match Elements.find_opt elements key with
    | Some e -> e
    | None ->
        let e = E (Elements.length elements, Xml.Tree.Element (tag, attrs, List.map tree_of items)) in
        Elements.add elements key e;
        e
  in
  let rec node (n : Pxml.node) : (float * item list) list =
    match n with
    | Pxml.Text s -> [ (1., [ T s ]) ]
    | Pxml.Elem (tag, attrs, content) -> (
        match Pxml.Table.find_opt memo n with
        | Some local -> local
        | None ->
            let attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) attrs in
            let local =
              product (List.map dist content)
              |> List.map (fun (p, items) -> (p, [ intern tag attrs items ]))
              |> merge_forests
            in
            Pxml.Table.add memo n local;
            local)
  and dist (d : Pxml.dist) =
    List.concat_map
      (fun (c : Pxml.choice) ->
        List.map (fun (p, items) -> (c.Pxml.prob *. p, items)) (product (List.map node c.Pxml.nodes)))
      (live_choices d)
    |> merge_forests
  in
  (* at the root each tree is canonical on its own: no text is joined *)
  let root = List.map (function T s -> T (Xml.Tree.normalize_space s) | e -> e) in
  List.map (fun (p, items) -> (p, root items)) (dist d)
  |> merge_forests
  |> List.map (fun (p, items) -> (p, List.map tree_of items))
  |> List.sort (fun (p, f) (q, g) ->
         match Float.compare q p with 0 -> List.compare Xml.Tree.compare_raw f g | c -> c)

let distinct_count d = List.length (merged d)

let total_probability d = Seq.fold_left (fun acc (p, _) -> acc +. p) 0. (enumerate d)

(* ---- k-best worlds -------------------------------------------------------- *)

let take_top k xs =
  let sorted = List.sort (fun (p, _) (q, _) -> Float.compare q p) xs in
  List.filteri (fun i _ -> i < k) sorted

(* Combine the k-best lists of independent components: a lazy product would
   be asymptotically better, but with the top-k lists already capped at k
   elements the quadratic merge-per-step is k²·|components| — fine for the
   small k this API is for. *)
let product_top k (lists : (float * 'a list) list list) : (float * 'a list) list =
  List.fold_left
    (fun acc best ->
      take_top k
        (List.concat_map (fun (p, xs) -> List.map (fun (q, ys) -> (p *. q, xs @ ys)) best) acc))
    [ (1., []) ]
    lists

let rec best_node k (n : Pxml.node) : (float * Xml.Tree.t) list =
  match n with
  | Pxml.Text s -> [ (1., Xml.Tree.Text s) ]
  | Pxml.Elem (tag, attrs, content) ->
      List.map
        (fun (p, children) -> (p, Xml.Tree.Element (tag, attrs, children)))
        (product_top k (List.map (best_dist k) content))

and best_dist k (d : Pxml.dist) : (float * Xml.Tree.t list) list =
  take_top k
    (List.concat_map
       (fun (c : Pxml.choice) ->
         List.map
           (fun (p, nodes) -> (c.Pxml.prob *. p, nodes))
           (product_top k
              (List.map (fun n -> List.map (fun (p, t) -> (p, [ t ])) (best_node k n)) c.Pxml.nodes)))
       d.Pxml.choices)

let most_likely ~k d = if k <= 0 then [] else best_dist k d

module Prng = Imprecise_prng.Prng

let pick_choice rng (d : Pxml.dist) =
  let u, rng = Prng.float rng in
  let rec go acc = function
    | [] -> (List.hd (List.rev d.Pxml.choices), rng) (* numeric slack: last *)
    | (c : Pxml.choice) :: rest ->
        let acc = acc +. c.prob in
        if u < acc then (c, rng) else go acc rest
  in
  go 0. d.Pxml.choices

let rec sample_node rng (n : Pxml.node) =
  match n with
  | Pxml.Text s -> ((1., Xml.Tree.Text s), rng)
  | Pxml.Elem (tag, attrs, content) ->
      let (p, children), rng = sample_dists rng content in
      ((p, Xml.Tree.Element (tag, attrs, children)), rng)

and sample_dists rng (dists : Pxml.dist list) =
  List.fold_left
    (fun ((p, acc), rng) d ->
      let (q, nodes), rng = sample_dist rng d in
      ((p *. q, acc @ nodes), rng))
    ((1., []), rng)
    dists

and sample_dist rng (d : Pxml.dist) =
  let c, rng = pick_choice rng d in
  let (p, nodes), rng =
    List.fold_left
      (fun ((p, acc), rng) n ->
        let (q, t), rng = sample_node rng n in
        ((p *. q, acc @ [ t ]), rng))
      ((c.Pxml.prob, []), rng)
      c.Pxml.nodes
  in
  ((p, nodes), rng)

let sample rng d = sample_dist rng d

let sample_many ~n rng d =
  let rec go k rng acc =
    if k = 0 then (List.rev acc, rng)
    else
      let w, rng = sample rng d in
      go (k - 1) rng (w :: acc)
  in
  go n rng []
