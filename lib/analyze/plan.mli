(** The static query planner: decide, before touching any worlds, which
    evaluator is safe for a query, what it will cost, and why.

    [plan] combines three static passes over a {!Summary.t}:

    + {!Cost.analyze} — sound upper bounds on answer cardinality and
      worlds-to-enumerate;
    + [Imprecise_xpath.Fragment.classify] — the syntactic tractability
      classifier shared with the direct evaluator;
    + the data-dependent proofs the direct evaluator otherwise discovers
      at runtime, decided here against the summary with the same step
      automaton: binder occurrences never nest ([P005] when they can),
      and every occurrence subtree stays under the local world limit
      ([P006] when one may exceed it).

    Route prediction is exact (fuzz-certified): [route = Direct] iff the
    direct evaluator accepts the query on any document the summary
    covers, because both sides share one fragment definition, one
    automaton, and bit-identical world counts.

    Fallback reasons are reported as {!Diag.t} with codes [P001]–[P006]
    (severity [Info] — routing to enumeration is not a defect) and flow
    through [imprecise check --plan] and the [Obs] event stream. *)

type route = Direct | Enumerate

type t = {
  route : route;
  cost : Cost.t;
  obligations : string list;
      (** the proof obligations discharged when [route = Direct] *)
  reasons : Diag.t list;
      (** why not direct — [P00n] diagnostics when [route = Enumerate] *)
}

(** [plan ~summary ?source expr] — [source] attaches the query text to
    reason diagnostics. Occurrence subtrees are bounded by
    [Fragment.default_local_limit], the limit the direct evaluator
    applies. *)
val plan : summary:Summary.t -> ?source:string -> Imprecise_xpath.Ast.expr -> t

val route_to_string : route -> string

val to_json : t -> Imprecise_obs.Obs.Json.t

val pp : Format.formatter -> t -> unit
