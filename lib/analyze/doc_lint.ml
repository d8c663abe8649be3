module Pxml = Imprecise_pxml.Pxml
module Compact = Imprecise_pxml.Compact

(* Coarse tolerance the decoder applies to probability sums; drift beyond
   [Pxml.epsilon] but inside this is D004, beyond it D003. *)
let decoder_tolerance = 1e-6

let prob_component i = Printf.sprintf "prob[%d]" i

let poss_component j = Printf.sprintf "poss[%d]" j

let reserved_tags = [ "p:prob"; "p:poss" ]

let lint (doc : Pxml.doc) : Diag.t list =
  let diags = ref [] in
  let emit ~code ~severity ~path fmt =
    Format.kasprintf
      (fun message ->
        diags :=
          Diag.make ~location:(Diag.Doc_path (List.rev path)) ~code ~severity message
          :: !diags)
      fmt
  in
  (* [rev_path] grows towards the root; locations reverse it back. *)
  let rec lint_dist rev_path i (d : Pxml.dist) =
    let path = prob_component i :: rev_path in
    (match d.Pxml.choices with
    | [] ->
        emit ~code:"D002" ~severity:Diag.Error ~path
          "probability node has no possibilities"
    | choices ->
        let sum = List.fold_left (fun acc (c : Pxml.choice) -> acc +. c.Pxml.prob) 0. choices in
        let drift = Float.abs (sum -. 1.) in
        if drift > decoder_tolerance then
          emit ~code:"D003" ~severity:Diag.Error ~path
            "possibility probabilities sum to %g, not 1" sum
        else if drift > Pxml.epsilon then
          emit ~code:"D004" ~severity:Diag.Warning ~path
            "possibility probabilities sum to %.12g: drift %g exceeds epsilon but is \
             inside the decoder tolerance"
            sum drift;
        List.iteri
          (fun j0 (c : Pxml.choice) ->
            let cpath = poss_component (j0 + 1) :: path in
            if c.Pxml.prob < -.Pxml.epsilon || c.Pxml.prob > 1. +. Pxml.epsilon then
              emit ~code:"D001" ~severity:Diag.Error ~path:cpath
                "probability %g is outside [0, 1]" c.Pxml.prob
            else if Float.abs c.Pxml.prob <= Pxml.epsilon then
              emit ~code:"D005" ~severity:Diag.Warning ~path:cpath
                "possibility has probability 0: dead weight the enumerator skips but \
                 every walk pays for")
          choices;
        (* Deep-equal siblings: the choice is not really a choice. *)
        List.iteri
          (fun j0 first ->
            Option.iter
              (fun k0 ->
                emit ~code:"D006" ~severity:Diag.Warning
                  ~path:(poss_component (j0 + 1) :: path)
                  "possibility %d is deep-equal to possibility %d: compaction was \
                   never run"
                  (j0 + 1) (k0 + 1))
              first)
          (Compact.first_equal choices));
    List.iteri
      (fun j0 (c : Pxml.choice) ->
        let cpath = poss_component (j0 + 1) :: path in
        List.iter (lint_node cpath) c.Pxml.nodes)
      d.Pxml.choices
  and lint_node rev_path (n : Pxml.node) =
    match n with
    | Pxml.Text _ -> ()
    | Pxml.Elem (name, _, dists) ->
        let path = name :: rev_path in
        if List.mem name reserved_tags then
          emit ~code:"D007" ~severity:Diag.Error ~path
            "element uses reserved codec tag <%s>" name;
        (* Adjacent certain probability nodes could be one. *)
        let rec adjacent i = function
          | a :: (b :: _ as rest) ->
              if
                Pxml.is_certain_choice_list a.Pxml.choices
                && Pxml.is_certain_choice_list b.Pxml.choices
              then
                emit ~code:"D008" ~severity:Diag.Info ~path:(prob_component (i + 1) :: path)
                  "adjacent certain probability nodes %d and %d can be merged" i (i + 1);
              adjacent (i + 1) rest
          | _ -> ()
        in
        adjacent 1 dists;
        List.iteri (fun i0 d -> lint_dist path (i0 + 1) d) dists
  in
  lint_dist [] 1 doc;
  List.rev !diags
