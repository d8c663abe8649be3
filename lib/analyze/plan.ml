module Ast = Imprecise_xpath.Ast
module Fragment = Imprecise_xpath.Fragment
module Json = Imprecise_obs.Obs.Json

type route = Direct | Enumerate

type t = {
  route : route;
  cost : Cost.t;
  obligations : string list;
  reasons : Diag.t list;
}

let route_to_string = function Direct -> "direct" | Enumerate -> "enumerate"

let reason ?source code detail =
  let location =
    match source with
    | Some src -> Diag.Query_at { source = src; offset = None }
    | None -> Diag.Nowhere
  in
  Diag.make ~location ~code ~severity:Diag.Info detail

let reasonf ?source code fmt = Format.kasprintf (reason ?source code) fmt

let is_strict_prefix prefix p =
  let rec go prefix p =
    match (prefix, p) with
    | [], _ :: _ -> true
    | [], [] -> false
    | x :: prefix, y :: p -> String.equal x y && go prefix p
    | _ :: _, [] -> false
  in
  go prefix p

let plan ~summary ?source expr : t =
  let local_limit = Fragment.default_local_limit in
  let cost = Cost.analyze summary expr in
  let enumerate reasons =
    { route = Enumerate; cost; obligations = []; reasons }
  in
  match Fragment.classify expr with
  | Error { Fragment.code; detail } -> enumerate [ reason ?source code detail ]
  | Ok shape -> (
      let automaton = Fragment.automaton shape in
      let occurrences =
        List.filter (Fragment.occurrence_path automaton) (Summary.paths summary)
      in
      let nested =
        List.find_opt
          (fun p -> List.exists (fun q -> is_strict_prefix p q) occurrences)
          occurrences
      in
      match nested with
      | Some p ->
          enumerate
            [
              reasonf ?source "P005"
                "binder occurrences can nest (an occurrence below %s) — independence \
                 of occurrence emissions would be lost"
                (Summary.path_to_string p);
            ]
      | None ->
          let max_local =
            List.fold_left
              (fun acc p ->
                match Summary.find summary p with
                | Some (e : Summary.entry) -> Float.max acc e.Summary.subtree_worlds
                | None -> acc)
              0. occurrences
          in
          if max_local > local_limit then
            enumerate
              [
                reasonf ?source "P006"
                  "an occurrence subtree has %g local worlds (limit %g)" max_local
                  local_limit;
              ]
          else
            {
              route = Direct;
              cost;
              obligations =
                [
                  Printf.sprintf
                    "binder occurrences never nest (%d occurrence path(s) over %d \
                     summary paths)"
                    (List.length occurrences)
                    (List.length (Summary.paths summary));
                  Printf.sprintf
                    "every occurrence subtree has at most %g local worlds (limit %g)"
                    max_local local_limit;
                  "local predicates and value steps stay inside each occurrence's \
                   subtree (Fragment.classify)";
                ];
              reasons = [];
            })

let to_json t =
  Json.Obj
    [
      ("route", Json.String (route_to_string t.route));
      ("cost", Cost.to_json t.cost);
      ("obligations", Json.List (List.map (fun o -> Json.String o) t.obligations));
      ("reasons", Json.List (List.map Diag.to_json t.reasons));
    ]

let pp ppf t =
  Format.fprintf ppf "route=%s %a" (route_to_string t.route) Cost.pp t.cost;
  List.iter
    (fun (d : Diag.t) -> Format.fprintf ppf "@.  %s: %s" d.Diag.code d.Diag.message)
    t.reasons;
  List.iter (fun o -> Format.fprintf ppf "@.  proves: %s" o) t.obligations
