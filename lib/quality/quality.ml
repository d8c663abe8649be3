module Pxml = Imprecise_pxml.Pxml
module Worlds = Imprecise_pxml.Worlds
module Answer = Imprecise_pquery.Answer
module Naive = Imprecise_pquery.Naive

type error = Too_many_worlds of float | Bad_query of string

module SS = Set.Make (String)

let mass_on answers pred =
  List.fold_left
    (fun acc (a : Answer.t) -> if pred a.value then acc +. a.prob else acc)
    0. answers

let probabilistic_precision answers ~truth =
  let t = SS.of_list truth in
  let total = mass_on answers (fun _ -> true) in
  if total <= 0. then 1. else mass_on answers (fun v -> SS.mem v t) /. total

let probabilistic_recall answers ~truth =
  let t = SS.of_list truth in
  if SS.is_empty t then 1.
  else mass_on answers (fun v -> SS.mem v t) /. float_of_int (SS.cardinal t)

let f_measure answers ~truth =
  let p = probabilistic_precision answers ~truth in
  let r = probabilistic_recall answers ~truth in
  if p +. r <= 0. then 0. else 2. *. p *. r /. (p +. r)

let top_k k answers =
  List.filteri (fun i _ -> i < k) (Answer.rank answers)

let ( let* ) = Result.bind

let guard limit doc =
  let combos = Pxml.world_count doc in
  if combos > limit then Error (Too_many_worlds combos) else Ok ()

let expected_set_measures ?(limit = 200_000.) doc ~query ~truth =
  let* () = guard limit doc in
  let* expr =
    Result.map_error (fun msg -> Bad_query msg) (Imprecise_xpath.Parser.parse query)
  in
  let t = SS.of_list truth in
  let acc_p = ref 0. and acc_r = ref 0. in
  Seq.iter
    (fun (p, forest) ->
      if p > 0. then begin
        let answer = SS.of_list (Naive.answer_in_world forest expr) in
        let correct = SS.cardinal (SS.inter answer t) in
        let precision =
          if SS.is_empty answer then 1.
          else float_of_int correct /. float_of_int (SS.cardinal answer)
        in
        let recall =
          if SS.is_empty t then 1. else float_of_int correct /. float_of_int (SS.cardinal t)
        in
        acc_p := !acc_p +. (p *. precision);
        acc_r := !acc_r +. (p *. recall)
      end)
    (Worlds.enumerate doc);
  Ok (!acc_p, !acc_r)

let world_entropy ?(limit = 200_000.) doc =
  let* () = guard limit doc in
  Ok
    (List.fold_left
       (fun acc (p, _) -> if p > 0. then acc -. (p *. (Float.log p /. Float.log 2.)) else acc)
       0. (Worlds.merged doc))
