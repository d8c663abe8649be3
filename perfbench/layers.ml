(* Per-layer accounting for the traced run: self time per span, attributed
   to a layer by span name, summed per op kind. *)

module Obs = Imprecise.Obs

(* [enumerate] is emitted by both the query evaluator and the integration
   engine; its parent decides which. *)
let layer_of ~under_rank = function
  | "enumerate" -> if under_rank then "pquery.enumerate" else "integrate.enumerate"
  | "integrate" | "integrate.incremental" -> "integrate.fold"
  | "block" -> "integrate.block"
  | "match" -> "integrate.match"
  | "reconcile" -> "integrate.reconcile"
  | "merge" -> "integrate.merge"
  | "direct" -> "pquery.direct"
  | "sample" -> "pquery.sample"
  | name -> name

(* The layers whose self time each op kind reports; everything else under
   that kind's spans is its [other] remainder. *)
let owned = function
  | Op.Integrate ->
      [
        "xml.parse";
        "integrate.fold";
        "integrate.block";
        "integrate.match";
        "integrate.enumerate";
        "integrate.reconcile";
        "integrate.merge";
      ]
  | Op.Query ->
      [
        "xpath.compile";
        "analyze.summary";
        "analyze.check";
        "analyze.plan";
        "pquery.rank";
        "pquery.direct";
        "pquery.enumerate";
      ]
  | Op.Feedback -> [ "feedback.prune"; "feedback.assert"; "feedback.certainty" ]
  | Op.Save -> [ "store.save" ]
  | Op.Load -> [ "store.load" ]

(* Self seconds per (kind, layer). *)
type t = (string, float) Hashtbl.t array

let create () : t = Array.init (List.length Op.kinds) (fun _ -> Hashtbl.create 16)

let add (t : t) kind layer seconds =
  let h = t.(Op.index kind) in
  Hashtbl.replace h layer (seconds +. Option.value ~default:0. (Hashtbl.find_opt h layer))

let get (t : t) kind layer = Option.value ~default:0. (Hashtbl.find_opt t.(Op.index kind) layer)

let rec record t kind ~under_rank (s : Obs.Trace.span) =
  let covered = List.fold_left (fun acc c -> acc +. Obs.Trace.duration c) 0. s.children in
  add t kind (layer_of ~under_rank s.name) (Obs.Trace.duration s -. covered);
  let under_rank = under_rank || s.name = "pquery.rank" in
  List.iter (record t kind ~under_rank) s.children

let record t kind span = record t kind ~under_rank:false span

(* Every layer seen under [kind], largest first. *)
let breakdown (t : t) kind =
  Hashtbl.fold (fun layer s acc -> (layer, s) :: acc) t.(Op.index kind) []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
