module Xml = Imprecise_xml
module Pxml = Imprecise_pxml.Pxml
module Worlds = Imprecise_pxml.Worlds
module Ast = Imprecise_xpath.Ast
module Eval = Imprecise_xpath.Eval

module Obs = Imprecise_obs.Obs
module Budget = Imprecise_resilience.Budget

exception Too_many_worlds of float

let c_worlds = Obs.Metrics.counter "pquery.worlds_enumerated"

let c_early = Obs.Metrics.counter "pquery.topk_early_stops"

module SS = Set.Make (String)

let answer_in_world forest expr =
  let values =
    List.concat_map
      (fun root ->
        match Eval.eval root expr with
        | Eval.Nodeset items -> List.map Eval.string_of_item items
        | v -> [ Eval.string_value v ])
      forest
  in
  SS.elements (SS.of_list values)

let add_world tbl p forest expr =
  if p > 0. then
    List.iter
      (fun v ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt tbl v) in
        Hashtbl.replace tbl v (prev +. p))
      (answer_in_world forest expr)

let answers_of_tbl tbl =
  Answer.rank
    (Hashtbl.fold
       (fun value prob acc ->
         if prob <= 1e-12 then acc else { Answer.value; prob } :: acc)
       tbl [])

(* ---- top-k early termination --------------------------------------------

   Processed worlds carry mass [seen]; the rest of the enumeration carries
   at most [remaining = 1 - seen], so any value's final probability lies in
   [cur, cur + remaining] (unseen values in [0, remaining]). The top-k
   order is provably final once consecutive entries of the current ranking
   are separated by strictly more than [remaining] down to and including
   the k/k+1 boundary — nothing below (or unseen) can then climb past the
   k-th place, and no pair inside the top k can swap. The reported
   probabilities are underestimates by at most [remaining]; requiring
   [remaining <= tolerance] bounds that error, so the early-stopped answer
   equals the full enumeration within [tolerance]. *)
let topk_settled ranked k remaining =
  let arr = Array.of_list ranked in
  let p i = if i < Array.length arr then arr.(i).Answer.prob else 0. in
  Array.length arr >= k
  &&
  let rec gaps i = i >= k || (p i > p (i + 1) +. remaining && gaps (i + 1)) in
  gaps 0

let take k l = List.filteri (fun i _ -> i < k) l

(* One walk over the worlds, with optional top-k early termination. The
   settled check is O(answers log answers); run it every 32 worlds so it
   stays invisible. *)
let rank_expr ?budget ?(limit = 200_000.) ?top_k ?(tolerance = 1e-9) doc expr =
  (match top_k with
  | Some k when k <= 0 -> invalid_arg "Naive.rank_expr: top_k must be positive"
  | _ -> ());
  Option.iter Budget.check budget;
  let combos = Pxml.world_count doc in
  if combos > limit then raise (Too_many_worlds combos);
  let tbl = Hashtbl.create 64 in
  let seen = ref 0. in
  let n = ref 0 in
  let rec walk seq =
    match Seq.uncons seq with
    | None -> None
    | Some ((p, forest), rest) ->
        incr n;
        seen := !seen +. p;
        add_world tbl p forest expr;
        let early =
          match top_k with
          | Some k when !n land 31 = 0 ->
              let remaining = Float.max 0. (1. -. !seen) in
              if remaining <= tolerance then
                let ranked = answers_of_tbl tbl in
                if topk_settled ranked k remaining then Some ranked else None
              else None
          | _ -> None
        in
        (match early with Some _ -> Obs.Metrics.incr c_early | None -> ());
        (match early with Some _ as r -> r | None -> walk rest)
  in
  let early = walk (Worlds.enumerate ?budget doc) in
  Obs.Metrics.incr ~by:!n c_worlds;
  let ranked = match early with Some r -> r | None -> answers_of_tbl tbl in
  match top_k with Some k -> take k ranked | None -> ranked

let rank ?budget ?limit ?top_k ?tolerance doc query =
  rank_expr ?budget ?limit ?top_k ?tolerance doc
    (Imprecise_xpath.Parser.parse_exn query)
