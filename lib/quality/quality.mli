(** Answer-quality measures for uncertain query answers, adapted
    precision/recall in the spirit of the paper's ref [13] (de Keijzer &
    van Keulen, SUM 2007). The paper announces answer-quality experiments
    over these measures (§V, §VII); this module implements them.

    A ranked answer assigns each candidate value a probability. Against a
    ground-truth value set [T]:

    - {e probabilistic precision} — of the probability mass the system
      put on answers, the fraction placed on correct ones:
      [Σ_{v∈T} p(v) / Σ_v p(v)];
    - {e probabilistic recall} — how much of the truth the system found,
      weighted by its confidence: [Σ_{v∈T} p(v) / |T|];
    - {e expected precision/recall} — the expectation over possible worlds
      of the classical set measures. *)

module Pxml = Imprecise_pxml.Pxml
module Answer = Imprecise_pquery.Answer

val probabilistic_precision : Answer.t list -> truth:string list -> float

val probabilistic_recall : Answer.t list -> truth:string list -> float

(** Harmonic mean of the two probabilistic measures; 0 when either is 0. *)
val f_measure : Answer.t list -> truth:string list -> float

(** [top_k k answers] restricts to the [k] highest-ranked answers (for
    precision-at-k style evaluation). *)
val top_k : int -> Answer.t list -> Answer.t list

(** Why a world-enumerating measure gave no value: the document has more
    world combinations than the [limit], or the query does not parse. *)
type error = Too_many_worlds of float | Bad_query of string

(** [expected_set_measures ?limit doc ~query ~truth] enumerates the worlds
    (guarded by [limit], default 200_000 combinations), computes classical
    precision/recall of the query answer in each world, and returns their
    expectations [(precision, recall)]. A world with an empty answer has
    precision 1 (nothing asserted, nothing wrong). *)
val expected_set_measures :
  ?limit:float ->
  Pxml.doc ->
  query:string ->
  truth:string list ->
  (float * float, error) result

(** {1 Uncertainty measures}

    The paper argues #possible-worlds is deceiving and prefers #nodes; both
    are exposed by {!Pxml}. Entropy is a third view: how spread the
    probability mass is over distinct worlds. *)

(** [world_entropy ?limit doc] is the Shannon entropy (bits) of the
    distribution over distinct (canonical) worlds, guarded by [limit] as
    above. *)
val world_entropy : ?limit:float -> Pxml.doc -> (float, error) result
