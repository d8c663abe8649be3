module Obs = Imprecise_obs.Obs

type reason = Deadline | Worlds | Cancelled

exception Exceeded of reason

type t = {
  deadline : float option; (* absolute, in [Obs.Clock] seconds *)
  worlds : int Atomic.t option; (* work units remaining *)
  (* raised by the first trip so sibling domains stop at their next tick *)
  cancelled : bool Atomic.t;
  (* the first exhaustion wins; later checks re-raise its reason *)
  tripped : reason option Atomic.t;
  parent : t option;
}

(* Registered at load time so the resilience counters are part of the
   catalogue even for runs that never trip a budget. *)
let c_deadline = Obs.Metrics.counter "resilience.deadline_exceeded"

let c_worlds = Obs.Metrics.counter "resilience.world_budget_exceeded"

let c_cancelled = Obs.Metrics.counter "resilience.cancellations"

let reason_to_string = function
  | Deadline -> "deadline exceeded"
  | Worlds -> "world budget exceeded"
  | Cancelled -> "cancelled"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let counter_of = function
  | Deadline -> c_deadline
  | Worlds -> c_worlds
  | Cancelled -> c_cancelled

let create ?timeout_ms ?max_worlds () =
  (match timeout_ms with
  | Some ms when ms <= 0 -> invalid_arg "Budget.create: timeout_ms must be positive"
  | _ -> ());
  (match max_worlds with
  | Some n when n <= 0 -> invalid_arg "Budget.create: max_worlds must be positive"
  | _ -> ());
  {
    deadline =
      Option.map (fun ms -> Obs.Clock.now () +. (float_of_int ms /. 1000.)) timeout_ms;
    worlds = Option.map Atomic.make max_worlds;
    cancelled = Atomic.make false;
    tripped = Atomic.make None;
    parent = None;
  }

(* Record the first trip, bump its counter exactly once, raise the flag
   the other domains poll — then raise. A budget that already tripped
   keeps its original reason whatever later exhaustions occur. *)
let trip t reason =
  let reason =
    if Atomic.compare_and_set t.tripped None (Some reason) then begin
      Obs.Metrics.incr (counter_of reason);
      Obs.Event.emit
        ~fields:[ ("reason", Obs.Json.String (reason_to_string reason)) ]
        "budget.trip";
      Atomic.set t.cancelled true;
      reason
    end
    else Option.value ~default:reason (Atomic.get t.tripped)
  in
  raise (Exceeded reason)

let rec check t =
  (match Atomic.get t.tripped with
  | Some reason -> raise (Exceeded reason)
  | None -> ());
  if Atomic.get t.cancelled then trip t Cancelled;
  (match t.deadline with
  | Some d when Obs.Clock.now () > d -> trip t Deadline
  | _ -> ());
  match t.parent with Some p -> check p | None -> ()

let rec consume t n =
  (match t.worlds with
  | Some left -> if Atomic.fetch_and_add left (-n) - n < 0 then trip t Worlds
  | None -> ());
  match t.parent with Some p -> consume p n | None -> ()

let tick ?(n = 1) t =
  consume t n;
  check t

let cancel t =
  if Atomic.compare_and_set t.tripped None (Some Cancelled) then begin
    Obs.Metrics.incr c_cancelled;
    Obs.Event.emit
      ~fields:[ ("reason", Obs.Json.String (reason_to_string Cancelled)) ]
      "budget.cancel";
    Atomic.set t.cancelled true
  end

let rec exceeded t =
  match Atomic.get t.tripped with
  | Some reason -> Some reason
  | None ->
      if Atomic.get t.cancelled then Some Cancelled
      else if
        match t.deadline with Some d -> Obs.Clock.now () > d | None -> false
      then Some Deadline
      else if match t.worlds with Some left -> Atomic.get left <= 0 | None -> false
      then Some Worlds
      else Option.bind t.parent exceeded

let remaining_ms t =
  Option.map (fun d -> (d -. Obs.Clock.now ()) *. 1000.) t.deadline

let remaining_worlds t = Option.map (fun a -> max 0 (Atomic.get a)) t.worlds

let sub ?(fraction = 0.5) t =
  let fraction = Float.max 0. (Float.min 1. fraction) in
  let deadline =
    Option.map
      (fun d ->
        let now = Obs.Clock.now () in
        now +. (fraction *. Float.max 0. (d -. now)))
      t.deadline
  in
  let worlds =
    Option.map
      (fun left ->
        Atomic.make (int_of_float (fraction *. float_of_int (max 0 (Atomic.get left)))))
      t.worlds
  in
  {
    deadline;
    worlds;
    cancelled = Atomic.make false;
    tripped = Atomic.make None;
    parent = Some t;
  }
