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

module Key = struct
  type t = Xml.Tree.t list

  let compare = List.compare Xml.Tree.compare
end

module M = Map.Make (Key)

let merged ?budget d =
  let m =
    Seq.fold_left
      (fun m (p, forest) ->
        let key = List.map Xml.Tree.canonical forest in
        let prev = Option.value ~default:0. (M.find_opt key m) in
        M.add key (prev +. p) m)
      M.empty (enumerate ?budget d)
  in
  M.bindings m
  |> List.map (fun (k, p) -> (p, k))
  |> List.sort (fun (p, _) (q, _) -> Float.compare q p)

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
