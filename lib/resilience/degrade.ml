module Obs = Imprecise_obs.Obs

type grade =
  | Exact
  | Approximate of { rung : string; tolerance : float; confidence : float }

type 'a graded = { value : 'a; grade : grade }

let c_degradations = Obs.Metrics.counter "resilience.degradations"

let exact value = { value; grade = Exact }

let approximate ~rung ~tolerance ~confidence value =
  { value; grade = Approximate { rung; tolerance; confidence } }

let is_exact = function Exact -> true | Approximate _ -> false

let pp_grade ppf = function
  | Exact -> Format.pp_print_string ppf "exact"
  | Approximate { rung; tolerance; confidence } ->
      Format.fprintf ppf "approximate (rung %s, ±%g at %g%% confidence)" rung tolerance
        (100. *. confidence)

type 'a rung = { name : string; run : unit -> 'a graded }

let ladder ?(on_fallback = fun ~rung:_ _ -> ()) ~degradable rungs =
  if rungs = [] then invalid_arg "Degrade.ladder: no rungs";
  let rec go = function
    | [] -> assert false
    | [ last ] -> Obs.Trace.with_span ("degrade." ^ last.name) last.run
    | rung :: rest -> (
        match Obs.Trace.with_span ("degrade." ^ rung.name) rung.run with
        | result -> result
        | exception e when degradable e ->
            Obs.Metrics.incr c_degradations;
            Obs.Event.emit
              ~fields:
                [
                  ("rung", Obs.Json.String rung.name);
                  ( "to",
                    Obs.Json.String
                      (match rest with r :: _ -> r.name | [] -> "") );
                  ("error", Obs.Json.String (Printexc.to_string e));
                ]
              "degrade";
            Obs.Trace.note "degraded_from" (Obs.Json.String rung.name);
            on_fallback ~rung:rung.name e;
            go rest)
  in
  go rungs
