(* Tests for the telemetry library (lib/obs) and its wiring: registry
   idempotence, snapshot/reset semantics, span nesting under a fake clock,
   the no-sink fast path, JSON round-trips, op events (fake clock, plus one
   check that the default clock is wall time), tagged store-io
   attribution, and the span tree each library op emits. *)

module Obs = Imprecise.Obs
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Json = Obs.Json
module Store = Imprecise.Store
module Io = Imprecise.Store.Io
module Oracle = Imprecise.Oracle
module Integrate = Imprecise.Integrate
module Addressbook = Imprecise.Data.Addressbook

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* ---- metrics ------------------------------------------------------------- *)

let test_counter_idempotent () =
  let r = Metrics.registry () in
  let c1 = Metrics.counter ~registry:r "a" in
  Metrics.incr ~by:2 c1;
  let c2 = Metrics.counter ~registry:r "a" in
  Metrics.incr c2;
  check Alcotest.int "both handles see every increment" 3 (Metrics.count c1);
  check Alcotest.int "same value through either handle" 3 (Metrics.count c2);
  let snap = Metrics.snapshot ~registry:r () in
  check
    Alcotest.(list (pair string int))
    "one entry, not two" [ ("a", 3) ] snap.Metrics.counters

let test_histogram_idempotent () =
  let r = Metrics.registry () in
  let h1 = Metrics.histogram ~registry:r "h" in
  let h2 = Metrics.histogram ~registry:r "h" in
  Metrics.observe h1 2.;
  Metrics.observe h2 6.;
  let s = Metrics.stats h1 in
  check Alcotest.int "observations" 2 s.Metrics.observations;
  check feq "sum" 8. s.Metrics.sum;
  check feq "min" 2. s.Metrics.min;
  check feq "max" 6. s.Metrics.max;
  check feq "mean" 4. (Metrics.mean s)

let test_snapshot_order_and_zeros () =
  let r = Metrics.registry () in
  ignore (Metrics.counter ~registry:r "z.second-alphabetically");
  ignore (Metrics.counter ~registry:r "a.first-alphabetically");
  ignore (Metrics.histogram ~registry:r "h.never-observed");
  let snap = Metrics.snapshot ~registry:r () in
  check
    Alcotest.(list string)
    "registration order, zeros included"
    [ "z.second-alphabetically"; "a.first-alphabetically" ]
    (List.map fst snap.Metrics.counters);
  match snap.Metrics.histograms with
  | [ ("h.never-observed", s) ] ->
      check Alcotest.int "empty histogram listed" 0 s.Metrics.observations
  | _ -> Alcotest.fail "expected exactly the one registered histogram"

let test_snapshot_then_reset () =
  let r = Metrics.registry () in
  let c = Metrics.counter ~registry:r "c" in
  let h = Metrics.histogram ~registry:r "h" in
  Metrics.incr ~by:5 c;
  Metrics.observe h 1.5;
  let before = Metrics.snapshot ~registry:r () in
  Metrics.reset ~registry:r ();
  let after = Metrics.snapshot ~registry:r () in
  check Alcotest.(list (pair string int)) "snapshot kept its values" [ ("c", 5) ]
    before.Metrics.counters;
  check Alcotest.(list (pair string int)) "reset zeroes, keeps the name" [ ("c", 0) ]
    after.Metrics.counters;
  check Alcotest.int "histogram registration survives reset" 1
    (List.length after.Metrics.histograms);
  check Alcotest.int "histogram observations zeroed" 0
    (Metrics.stats h).Metrics.observations;
  (* the handles handed out before the reset still work *)
  Metrics.incr c;
  Metrics.observe h 2.;
  check Alcotest.int "old counter handle still live" 1 (Metrics.count c);
  check Alcotest.int "old histogram handle still live" 1
    (Metrics.stats h).Metrics.observations

(* ---- domain safety -------------------------------------------------------- *)

(* The headline regression of PR 5: counters used to be plain mutable ints,
   so 8 domains racing on one counter lost updates. Atomic fetch-and-add
   must account for every single increment. *)
let test_counter_domain_safe () =
  let r = Metrics.registry () in
  let c = Metrics.counter ~registry:r "stress" in
  let domains = 8 and per_domain = 100_000 in
  let worker () =
    Domain.spawn (fun () ->
        for _ = 1 to per_domain do
          Metrics.incr c
        done)
  in
  let spawned = List.init domains (fun _ -> worker ()) in
  List.iter Domain.join spawned;
  check Alcotest.int "no increment lost across 8 domains" (domains * per_domain)
    (Metrics.count c)

let test_histogram_domain_safe () =
  let r = Metrics.registry () in
  let h = Metrics.histogram ~registry:r "stress.h" in
  let domains = 8 and per_domain = 10_000 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              (* distinct values per domain so min/max are exercised too *)
              Metrics.observe h (float_of_int ((d * per_domain) + i))
            done))
  in
  List.iter Domain.join spawned;
  let s = Metrics.stats h in
  check Alcotest.int "no observation lost" (domains * per_domain) s.Metrics.observations;
  check feq "min observed" 1. s.Metrics.min;
  check feq "max observed" (float_of_int (domains * per_domain)) s.Metrics.max;
  let n = float_of_int (domains * per_domain) in
  check feq "sum is exactly 1+2+...+n" (n *. (n +. 1.) /. 2.) s.Metrics.sum

(* Concurrent registration under the registry lock: every domain asking for
   the same name must get the same counter, and distinct names must all
   survive into the snapshot. *)
let test_registration_domain_safe () =
  let r = Metrics.registry () in
  let domains = 8 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              Metrics.incr (Metrics.counter ~registry:r "shared");
              Metrics.incr (Metrics.counter ~registry:r (Printf.sprintf "own.%d.%d" d i))
            done))
  in
  List.iter Domain.join spawned;
  check Alcotest.int "shared counter exact" (domains * 100)
    (Metrics.count (Metrics.counter ~registry:r "shared"));
  let snap = Metrics.snapshot ~registry:r () in
  check Alcotest.int "every registration survived"
    (1 + (domains * 100))
    (List.length snap.Metrics.counters)

(* ---- tracing ------------------------------------------------------------- *)

(* A deterministic clock: every assertion below is pure arithmetic on the
   ticks, never a wall-clock reading. *)
let fake_clock () =
  let t = ref 0. in
  ((fun () -> !t), fun dt -> t := !t +. dt)

(* [install ~now] installs [now] as the one [Obs.Clock]; restore the
   default afterwards so no fake clock leaks into later deadline tests. *)
let with_collector now f =
  let sink, roots = Trace.collector () in
  Trace.install ~now sink;
  Fun.protect
    ~finally:(fun () ->
      Trace.uninstall ();
      Obs.Clock.set Unix.gettimeofday)
    f;
  roots ()

let test_nested_spans_fake_clock () =
  let now, tick = fake_clock () in
  let roots =
    with_collector now (fun () ->
        Trace.with_span "root" (fun () ->
            tick 1.;
            Trace.with_span "child1" (fun () -> tick 2.);
            Trace.with_span "child2" (fun () -> tick 3.);
            tick 1.))
  in
  match roots with
  | [ r ] ->
      check Alcotest.string "root name" "root" r.Trace.name;
      check feq "root start" 0. r.Trace.start;
      check feq "root duration covers children" 7. (Trace.duration r);
      check
        Alcotest.(list string)
        "children attached in start order" [ "child1"; "child2" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name) r.Trace.children);
      let c1 = List.nth r.Trace.children 0 and c2 = List.nth r.Trace.children 1 in
      check feq "child1 interval" 1. c1.Trace.start;
      check feq "child1 duration" 2. (Trace.duration c1);
      check feq "child2 starts where child1 stopped" 3. c2.Trace.start;
      check feq "child2 duration" 3. (Trace.duration c2);
      check Alcotest.int "grandchildren empty" 0 (List.length c1.Trace.children)
  | roots -> Alcotest.failf "expected 1 root span, got %d" (List.length roots)

let test_span_closes_on_exception () =
  let now, tick = fake_clock () in
  let roots =
    with_collector now (fun () ->
        Trace.with_span "outer" (fun () ->
            (try Trace.with_span "boom" (fun () -> tick 1.; failwith "boom")
             with Failure _ -> tick 1.));
        try Trace.with_span "solo" (fun () -> raise Exit) with Exit -> ())
  in
  match roots with
  | [ outer; solo ] ->
      check Alcotest.string "outer first (completion order)" "outer" outer.Trace.name;
      check Alcotest.string "raising root still reported" "solo" solo.Trace.name;
      (match outer.Trace.children with
      | [ boom ] ->
          check Alcotest.string "raising child still attached" "boom" boom.Trace.name;
          check feq "child closed at the raise" 1. (Trace.duration boom)
      | _ -> Alcotest.fail "expected the raising child under its parent")
  | roots -> Alcotest.failf "expected 2 root spans, got %d" (List.length roots)

let test_no_sink_fast_path () =
  Trace.uninstall ();
  check Alcotest.bool "disabled without a sink" false (Trace.enabled ());
  (* spans run while disabled are pure pass-through... *)
  check Alcotest.int "with_span is the identity on its thunk" 42
    (Trace.with_span "ghost" (fun () -> 42));
  (* ...and leave no residue behind for a sink installed later *)
  let now, tick = fake_clock () in
  let roots =
    with_collector now (fun () -> Trace.with_span "real" (fun () -> tick 1.))
  in
  check
    Alcotest.(list string)
    "only spans from the enabled window" [ "real" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) roots);
  check Alcotest.bool "uninstall disables again" false (Trace.enabled ())

(* Span stacks are domain-local: spans opened inside a spawned domain must
   arrive at the sink as their own root (with their own children intact) and
   must never corrupt the tree of the span open on the spawning domain. *)
let test_spans_domain_local () =
  let now, tick = fake_clock () in
  let roots =
    with_collector now (fun () ->
        Trace.with_span "main" (fun () ->
            tick 1.;
            let d =
              Domain.spawn (fun () ->
                  Trace.with_span "worker" (fun () ->
                      Trace.with_span "inner" (fun () -> tick 1.)))
            in
            Domain.join d;
            (* the worker's spans must not have hijacked main's stack *)
            Trace.with_span "after" (fun () -> tick 1.)))
  in
  let by_name n = List.find_opt (fun (s : Trace.span) -> s.Trace.name = n) roots in
  check Alcotest.int "two roots: worker and main" 2 (List.length roots);
  (match by_name "worker" with
  | Some w ->
      check
        Alcotest.(list string)
        "worker kept its own child" [ "inner" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name) w.Trace.children)
  | None -> Alcotest.fail "worker span missing from the sink");
  match by_name "main" with
  | Some m ->
      check
        Alcotest.(list string)
        "main's tree has only its own child" [ "after" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name) m.Trace.children)
  | None -> Alcotest.fail "main span missing from the sink"

(* ---- json ---------------------------------------------------------------- *)

let json_testable =
  Alcotest.testable (fun ppf j -> Fmt.string ppf (Json.to_string j)) ( = )

let sample =
  Json.Obj
    [
      ("s", Json.String "line\n\"quoted\"\ttab \\ slash");
      ("i", Json.Int (-42));
      ("f", Json.Float 1.5);
      ("b", Json.Bool true);
      ("n", Json.Null);
      ("l", Json.List [ Json.Int 1; Json.Float (-0.25); Json.Obj [] ]);
      ("o", Json.Obj [ ("nested", Json.List []) ]);
    ]

let test_json_roundtrip () =
  let rt s = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  check json_testable "compact round-trip" sample (rt (Json.to_string sample));
  check json_testable "indented round-trip" sample
    (rt (Json.to_string ~indent:2 sample));
  check
    Alcotest.(option string)
    "member finds a field" (Some "1.5")
    (Option.map Json.to_string (Json.member "f" sample));
  check
    Alcotest.(option string)
    "member on a non-object" None
    (Option.map Json.to_string (Json.member "f" (Json.Int 3)))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

(* [u "0041"] is the six-character JSON escape for U+0041; built from the
   char code so no tooling between here and the compiler can decode the
   escape prematurely. [quoted ss] wraps a concatenation in JSON quotes. *)
let u hex = String.make 1 (Char.chr 0x5c) ^ "u" ^ hex

let quoted ss = {|"|} ^ String.concat "" ss ^ {|"|}

let test_json_unicode_escapes () =
  let parse s = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  check json_testable "BMP escape" (Json.String "A") (parse (quoted [ u "0041" ]));
  check json_testable "two-byte UTF-8 (e-acute)" (Json.String "\xc3\xa9")
    (parse (quoted [ u "00e9" ]));
  check json_testable "three-byte UTF-8 (euro)" (Json.String "\xe2\x82\xac")
    (parse (quoted [ u "20AC" ]));
  check json_testable "surrogate pair (emoji)" (Json.String "\xf0\x9f\x98\x80")
    (parse (quoted [ u "d83d"; u "de00" ]));
  check json_testable "escape embedded in text" (Json.String "a\xe2\x82\xacb")
    (parse (quoted [ "a"; u "20ac"; "b" ]));
  check json_testable "decoded UTF-8 survives a round-trip"
    (Json.String "\xf0\x9f\x98\x80")
    (parse (Json.to_string (Json.String "\xf0\x9f\x98\x80")))

let test_json_unicode_escape_errors () =
  List.iter
    (fun (label, s) ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %s: %S" label s
      | Error _ -> ())
    [
      ("a lone high surrogate", quoted [ u "d800" ]);
      ("a lone low surrogate", quoted [ u "dc00" ]);
      ("a high surrogate followed by text", quoted [ u "d800"; "abcd" ]);
      ("a high surrogate followed by a non-surrogate escape",
       quoted [ u "d800"; u "0041" ]);
      ("a low surrogate after the pair's low half", quoted [ u "d83d"; u "dc00"; u "dc00" ]);
      ("truncated hex", quoted [ u "00" ]);
      ("a non-hex digit", quoted [ u "00g1" ]);
      ("an underscore where int_of_string would accept it", quoted [ u "0_41" ]);
    ]

(* ---- quantile sketch ------------------------------------------------------- *)

(* The sketch declares ~5% relative error (doc/observability.md); assert a
   slightly looser 5.5% so bucket-boundary rounding can't flake. *)
let within name expected actual =
  let rel = Float.abs (actual -. expected) /. expected in
  if rel > 0.055 then
    Alcotest.failf "%s: estimated %g for true %g (relative error %.3f)" name actual
      expected rel

let test_quantile_accuracy () =
  let q = Obs.Quantile.create () in
  for i = 1 to 10_000 do
    Obs.Quantile.add q (float_of_int i)
  done;
  check Alcotest.int "count" 10_000 (Obs.Quantile.count q);
  within "p50" 5_000. (Obs.Quantile.estimate q 0.5);
  within "p90" 9_000. (Obs.Quantile.estimate q 0.9);
  within "p99" 9_900. (Obs.Quantile.estimate q 0.99);
  Obs.Quantile.clear q;
  check Alcotest.int "cleared" 0 (Obs.Quantile.count q);
  check feq "empty estimate is 0" 0. (Obs.Quantile.estimate q 0.5)

let test_quantile_zeros () =
  let q = Obs.Quantile.create () in
  Obs.Quantile.add q 0.;
  Obs.Quantile.add q (-3.);
  Obs.Quantile.add q 100.;
  check Alcotest.int "zero and negative counted" 3 (Obs.Quantile.count q);
  check feq "p50 lands in the zero bucket" 0. (Obs.Quantile.estimate q 0.5);
  within "p99 still sees the positive tail" 100. (Obs.Quantile.estimate q 0.99)

let test_histogram_quantiles () =
  let r = Metrics.registry () in
  let h = Metrics.histogram ~registry:r "lat" in
  for i = 1 to 1_000 do
    Metrics.observe h (float_of_int i)
  done;
  let s = Metrics.stats h in
  within "stats p50" 500. s.Metrics.p50;
  within "stats p90" 900. s.Metrics.p90;
  within "stats p99" 990. s.Metrics.p99;
  Metrics.reset ~registry:r ();
  let s = Metrics.stats h in
  check feq "reset clears the sketch" 0. s.Metrics.p99

(* ---- rendered output is sorted -------------------------------------------- *)

let index_of hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then -1
    else if String.sub hay i n = needle then i
    else go (i + 1)
  in
  go 0

let test_rendered_output_sorted () =
  let r = Metrics.registry () in
  ignore (Metrics.counter ~registry:r "z.registered-first");
  ignore (Metrics.counter ~registry:r "a.registered-second");
  Metrics.observe (Metrics.histogram ~registry:r "m.hist") 1.;
  let snap = Metrics.snapshot ~registry:r () in
  (* the snapshot itself keeps registration order (asserted elsewhere)... *)
  let text = Metrics.to_text snap in
  let za = index_of text "z.registered-first" and az = index_of text "a.registered-second" in
  if az < 0 || za < 0 then Alcotest.fail "a rendered counter is missing";
  check Alcotest.bool "...but to_text sorts by name" true (az < za);
  match Metrics.to_json snap with
  | Json.Obj kvs ->
      let keys_of name =
        match List.assoc_opt name kvs with
        | Some (Json.Obj fields) -> List.map fst fields
        | _ -> Alcotest.failf "to_json: %S is not an object" name
      in
      let ckeys = keys_of "counters" in
      check Alcotest.(list string) "to_json counters sorted"
        (List.sort compare ckeys) ckeys
  | _ -> Alcotest.fail "to_json: expected an object"

(* ---- events ---------------------------------------------------------------- *)

let c_emitted = Metrics.counter "obs.events_emitted"

let c_dropped = Metrics.counter "obs.events_dropped"

let event_int name ev =
  match Obs.Event.field name ev with Some (Json.Int i) -> i | _ -> min_int

let test_event_disabled_is_noop () =
  Obs.Event.disable ();
  check Alcotest.bool "disabled" false (Obs.Event.enabled ());
  let e0 = Metrics.count c_emitted in
  Obs.Event.emit ~fields:[ ("x", Json.Int 1) ] "ghost";
  check Alcotest.int "no emission while disabled" e0 (Metrics.count c_emitted);
  check Alcotest.int "emitted () is 0 while disabled" 0 (Obs.Event.emitted ());
  check Alcotest.int "recent () empty while disabled" 0
    (List.length (Obs.Event.recent ()))

let test_event_ring_capacity_and_drops () =
  Obs.Event.enable ~capacity:4 ();
  Fun.protect ~finally:Obs.Event.disable @@ fun () ->
  let e0 = Metrics.count c_emitted and d0 = Metrics.count c_dropped in
  for i = 1 to 6 do
    Obs.Event.emit ~fields:[ ("i", Json.Int i) ] "test.ev"
  done;
  check Alcotest.int "emitted counts every event" 6 (Obs.Event.emitted ());
  check Alcotest.int "obs.events_emitted delta exact" 6 (Metrics.count c_emitted - e0);
  check Alcotest.int "obs.events_dropped = emitted - capacity" 2
    (Metrics.count c_dropped - d0);
  let recents = Obs.Event.recent () in
  check Alcotest.int "capacity respected" 4 (List.length recents);
  check
    Alcotest.(list int)
    "survivors are the newest, oldest first" [ 3; 4; 5; 6 ]
    (List.map (event_int "i") recents);
  List.iter
    (fun ev -> check Alcotest.string "name intact" "test.ev" ev.Obs.Event.name)
    recents

let test_event_json_roundtrip () =
  let ev =
    {
      Obs.Event.ts = 12.5; name = "x.y"; trace_id = 3; span_id = 7;
      fields = [ ("a", Json.Int 1); ("b", Json.String "two") ];
    }
  in
  (match Obs.Event.of_json (Obs.Event.to_json ev) with
  | Ok ev' -> check Alcotest.bool "round-trip preserves the record" true (ev = ev')
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (label, j) ->
      match Obs.Event.of_json j with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("a non-object", Json.Int 3);
      ("a missing ts", Json.Obj [ ("name", Json.String "x") ]);
      ("a missing name", Json.Obj [ ("ts", Json.Float 1.) ]);
      ( "a non-string name",
        Json.Obj [ ("ts", Json.Float 1.); ("name", Json.Int 1) ] );
    ]

(* Astral-plane text (anything above U+FFFF escapes as a surrogate pair in
   JSON) must survive both sides of the pipeline: an event line written by
   an external emitter with \uXXXX pairs decodes to the UTF-8 scalar, and a
   metrics label carrying raw astral UTF-8 survives render + parse. *)
let test_astral_events_and_metric_labels () =
  let emoji = "\xf0\x9f\x98\x80" (* U+1F600 *) in
  let line =
    {|{"ts": 1.5, "name": "user.note", "trace_id": 0, "span_id": 0, "fields": {"text": |}
    ^ quoted [ "integration "; u "d83d"; u "de00" ]
    ^ {|}}|}
  in
  (match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Obs.Event.of_json j with
      | Error e -> Alcotest.fail e
      | Ok ev ->
          check json_testable "event field decoded the pair to UTF-8"
            (Json.String ("integration " ^ emoji))
            (match Obs.Event.field "text" ev with Some v -> v | None -> Json.Null)));
  let r = Metrics.registry () in
  let name = "docs." ^ emoji ^ ".count" in
  Metrics.incr (Metrics.counter ~registry:r name);
  match Json.parse (Json.to_string (Metrics.to_json (Metrics.snapshot ~registry:r ()))) with
  | Error e -> Alcotest.fail e
  | Ok parsed -> (
      match Json.member "counters" parsed with
      | Some (Json.Obj counters) ->
          check
            Alcotest.(option int)
            "astral metric label survives render + parse" (Some 1)
            (match List.assoc_opt name counters with
            | Some (Json.Int n) -> Some n
            | _ -> None)
      | _ -> Alcotest.fail "snapshot JSON has no counters object")

(* 8 domains hammering one ring: the emitted/dropped counters must both be
   exact, the ring must hold exactly [capacity] survivors, and no survivor
   may be torn (every record well-formed, fields consistent). *)
let test_event_ring_domain_stress () =
  let capacity = 512 in
  Obs.Event.enable ~capacity ();
  Fun.protect ~finally:Obs.Event.disable @@ fun () ->
  let e0 = Metrics.count c_emitted and d0 = Metrics.count c_dropped in
  let domains = 8 and per_domain = 10_000 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Event.emit
                ~fields:[ ("d", Json.Int d); ("i", Json.Int i) ]
                "stress.ev"
            done))
  in
  List.iter Domain.join spawned;
  let total = domains * per_domain in
  check Alcotest.int "emitted () exact across 8 domains" total (Obs.Event.emitted ());
  check Alcotest.int "obs.events_emitted delta exact" total
    (Metrics.count c_emitted - e0);
  check Alcotest.int "obs.events_dropped = total - capacity" (total - capacity)
    (Metrics.count c_dropped - d0);
  let recents = Obs.Event.recent () in
  check Alcotest.int "ring holds exactly capacity survivors" capacity
    (List.length recents);
  List.iter
    (fun ev ->
      check Alcotest.string "no torn name" "stress.ev" ev.Obs.Event.name;
      let d = event_int "d" ev and i = event_int "i" ev in
      if d < 0 || d >= domains || i < 1 || i > per_domain then
        Alcotest.failf "torn record: d=%d i=%d" d i)
    recents

(* ---- ops: the flight recorder -------------------------------------------- *)

let with_events f =
  Obs.Event.enable ~capacity:256 ();
  Fun.protect ~finally:Obs.Event.disable f

let event_named name events =
  match List.find_opt (fun ev -> ev.Obs.Event.name = name) events with
  | Some ev -> ev
  | None -> Alcotest.failf "no %s event" name

let field_string name ev =
  match Obs.Event.field name ev with Some (Json.String s) -> s | _ -> "?"

let field_float name ev =
  match Obs.Event.field name ev with Some (Json.Float f) -> f | _ -> Float.nan

let test_op_events () =
  let now, tick = fake_clock () in
  Obs.Clock.set now;
  Fun.protect ~finally:(fun () -> Obs.Clock.set Unix.gettimeofday) @@ fun () ->
  with_events @@ fun () ->
  let c_ops = Metrics.counter "obs.ops_recorded" and c_slow = Metrics.counter "obs.slow_ops" in
  let ops0 = Metrics.count c_ops and slow0 = Metrics.count c_slow in
  let result =
    Trace.op "test.fast" ~detail:"q1" (fun () ->
        Trace.note "k" (Json.Int 7);
        tick 0.5;
        "answer")
  in
  check Alcotest.string "op is transparent" "answer" result;
  Trace.op "test.slow" (fun () -> tick 3.);
  (try Trace.op "test.err" (fun () -> failwith "kaboom") with Failure _ -> ());
  Trace.note "stray" (Json.Int 0);
  let events = Obs.Event.recent () in
  check
    Alcotest.(list string)
    "one event per op, slow_op right after the slow one"
    [ "test.fast"; "test.slow"; "slow_op"; "test.err" ]
    (List.map (fun ev -> ev.Obs.Event.name) events);
  let fast = event_named "test.fast" events in
  check
    Alcotest.(list string)
    "fields: dur_ms, outcome, detail, then notes" [ "dur_ms"; "outcome"; "detail"; "k" ]
    (List.map fst fast.Obs.Event.fields);
  check feq "fast duration from the fake clock" 500. (field_float "dur_ms" fast);
  check Alcotest.string "ok outcome" "ok" (field_string "outcome" fast);
  check Alcotest.string "detail kept" "q1" (field_string "detail" fast);
  (match Obs.Event.field "k" fast with
  | Some (Json.Int 7) -> ()
  | _ -> Alcotest.fail "note lost");
  let slow = event_named "test.slow" events in
  check feq "slow duration from the fake clock" 3000. (field_float "dur_ms" slow);
  check Alcotest.string "slow_op names its op" "test.slow"
    (field_string "op" (event_named "slow_op" events));
  let err = event_named "test.err" events in
  check Alcotest.bool "exception recorded as error outcome" true
    (index_of (field_string "outcome" err) "error:" = 0);
  check Alcotest.bool "empty detail omitted" true (Obs.Event.field "detail" err = None);
  check Alcotest.int "every op counted" (ops0 + 3) (Metrics.count c_ops);
  check Alcotest.int "only the slow op counted slow" (slow0 + 1) (Metrics.count c_slow);
  (* with a sink installed the op is a span: its event carries the op's own
     ids, and a note made inside a nested span still lands on the op *)
  let roots =
    with_collector now (fun () ->
        Trace.op "test.traced" (fun () ->
            Trace.with_span "inner" (fun () -> Trace.note "deep" (Json.Bool true))))
  in
  (match roots with
  | [ { Trace.name = "test.traced"; children = [ { Trace.name = "inner"; _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected one test.traced span around inner");
  let traced = event_named "test.traced" (Obs.Event.recent ()) in
  check Alcotest.bool "event ids name the op's own root span" true
    (traced.Obs.Event.trace_id <> 0 && traced.Obs.Event.span_id = traced.Obs.Event.trace_id);
  check Alcotest.bool "note from a nested span lands on the op" true
    (Obs.Event.field "deep" traced = Some (Json.Bool true))

(* The default clock is wall time: an op that sleeps reports the sleep,
   in its event and in its latency histogram. *)
let test_op_default_clock_is_wall_time () =
  with_events @@ fun () ->
  Trace.op "clocktest.sleep" (fun () -> Unix.sleepf 0.02);
  let ev = event_named "clocktest.sleep" (Obs.Event.recent ()) in
  check Alcotest.bool "event dur_ms covers the sleep" true (field_float "dur_ms" ev >= 20.);
  let h = Metrics.stats (Metrics.histogram "clocktest.latency") in
  check Alcotest.int "one latency observation" 1 h.Metrics.observations;
  check Alcotest.bool "histogram covers the sleep" true (h.Metrics.max >= 20.)

(* ---- resilience events ----------------------------------------------------- *)

module Pxml = Imprecise.Pxml
module Pquery = Imprecise.Pquery
module Budget = Imprecise.Resilience.Budget
module Degrade = Imprecise.Resilience.Degrade

(* 2^12 worlds; count() is outside the direct evaluator's class, so the
   exact and top-k rungs of rank_graded must enumerate — and an 8-world
   budget trips them. *)
let wide_doc =
  Pxml.certain
    [
      Pxml.elem "r"
        (List.init 12 (fun i ->
             Pxml.dist
               [
                 Pxml.choice ~prob:0.5
                   [ Pxml.Elem ("v", [], [ Pxml.certain [ Pxml.Text (string_of_int i) ] ]) ];
                 Pxml.choice ~prob:0.5 [];
               ]))
    ]

(* The PR 7 regression: a budget-tripped query must yield exactly one
   [degrade] event per failed rung, naming it, and the event count must
   equal the resilience.degradations counter delta. *)
let test_degrade_emits_events () =
  let doc = wide_doc in
  Obs.Event.enable ~capacity:65536 ();
  Fun.protect ~finally:Obs.Event.disable @@ fun () ->
  let c_deg = Metrics.counter "resilience.degradations" in
  let deg0 = Metrics.count c_deg in
  let budget = Budget.create ~max_worlds:8 () in
  let graded = Pquery.rank_graded ~budget doc "count(//r/v)" in
  (match graded.Degrade.grade with
  | Degrade.Approximate { rung = "sample"; _ } -> ()
  | Degrade.Approximate { rung; _ } -> Alcotest.failf "expected the sample rung, got %s" rung
  | Degrade.Exact -> Alcotest.fail "an 8-world budget cannot rank 4096 worlds exactly");
  let events = Obs.Event.recent () in
  let degrades =
    List.filter (fun ev -> ev.Obs.Event.name = "degrade") events
  in
  let rung ev =
    match Obs.Event.field "rung" ev with Some (Json.String s) -> s | _ -> "?"
  in
  check
    Alcotest.(list string)
    "exactly one degrade event per failed rung, naming it" [ "exact"; "top_k" ]
    (List.map rung degrades);
  check Alcotest.int "degrade events match the degradations counter"
    (Metrics.count c_deg - deg0)
    (List.length degrades);
  check Alcotest.bool "the budget trip emitted its event" true
    (List.exists (fun ev -> ev.Obs.Event.name = "budget.trip") events);
  (* the graded op's event carries the fallbacks as degraded_from notes *)
  let graded_ev = event_named "pquery.rank_graded" events in
  check Alcotest.string "op outcome degraded" "degraded" (field_string "outcome" graded_ev);
  let degraded_from =
    List.filter_map
      (function "degraded_from", Json.String s -> Some s | _ -> None)
      graded_ev.Obs.Event.fields
  in
  check
    Alcotest.(list string)
    "degraded_from notes in rung order" [ "exact"; "top_k" ] degraded_from

(* ---- tagged store io ------------------------------------------------------ *)

let test_with_tag_scoping () =
  check Alcotest.string "default tag" "io" (Io.current_tag ());
  Io.with_tag "doc" (fun () ->
      check Alcotest.string "inner tag" "doc" (Io.current_tag ());
      Io.with_tag "manifest" (fun () ->
          check Alcotest.string "nested tag" "manifest" (Io.current_tag ()));
      check Alcotest.string "restored after nesting" "doc" (Io.current_tag ()));
  (try Io.with_tag "cleanup" (fun () -> raise Exit) with Exit -> ());
  check Alcotest.string "restored after a raise" "io" (Io.current_tag ())

let obs_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "imprecise-obs-%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     dir)

let test_metered_io_attribution () =
  let r = Metrics.registry () in
  let io = Io.metered ~registry:r Io.real in
  let dir = Lazy.force obs_dir in
  let doc = Filename.concat dir "doc.xml" and man = Filename.concat dir "MANIFEST" in
  Io.with_tag "doc" (fun () -> Io.write_file io doc "hello");
  Io.with_tag "manifest" (fun () ->
      Io.write_file io (man ^ ".tmp") "abc";
      Io.rename io ~src:(man ^ ".tmp") ~dst:man);
  ignore (Io.read_file io doc);
  let count name = Metrics.count (Metrics.counter ~registry:r name) in
  check Alcotest.int "total bytes written" 8 (count "store.bytes_written");
  check Alcotest.int "bytes read back" 5 (count "store.bytes_read");
  check Alcotest.int "doc writes attributed" 1 (count "store.writes.doc");
  check Alcotest.int "doc bytes attributed" 5 (count "store.write_bytes.doc");
  check Alcotest.int "manifest writes attributed" 1 (count "store.writes.manifest");
  check Alcotest.int "manifest bytes attributed" 3 (count "store.write_bytes.manifest");
  check Alcotest.int "renames counted" 1 (count "store.renames");
  check Alcotest.int "nothing deleted" 0 (count "store.deletes")

(* ---- end-to-end: the instrumented libraries feed the global registry ------ *)

let test_global_wiring () =
  let c name = Metrics.counter name in
  let pairs = c "integrate.pairs_compared" in
  let decisions = c "oracle.decisions" in
  let saves = c "store.saves" in
  let manifest_writes = c "store.writes.manifest" in
  let p0 = Metrics.count pairs and d0 = Metrics.count decisions in
  let cfg =
    Integrate.config
      ~oracle:(Oracle.make [ Oracle.deep_equal_rule ])
      ~dtd:Addressbook.dtd ()
  in
  let doc =
    match Integrate.integrate cfg Addressbook.source_a Addressbook.source_b with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "integration failed: %a" Integrate.pp_error e
  in
  check Alcotest.bool "integration counted pairs" true (Metrics.count pairs > p0);
  check Alcotest.bool "oracle counted decisions" true (Metrics.count decisions > d0);
  let s0 = Metrics.count saves and m0 = Metrics.count manifest_writes in
  let store = Store.create () in
  Store.put store "doc" (Store.Probabilistic doc);
  let dir = Filename.concat (Lazy.force obs_dir) "store" in
  (match Store.save store ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  check Alcotest.int "save counted itself" (s0 + 1) (Metrics.count saves);
  check Alcotest.bool "manifest commit attributed" true
    (Metrics.count manifest_writes > m0)

(* ---- library span hierarchy ----------------------------------------------- *)

(* The span names and nesting every library op emits. Per-layer profiles
   attribute self time by exactly these names, so they are pinned here. *)

let rec shape (s : Trace.span) =
  match s.Trace.children with
  | [] -> s.Trace.name
  | cs -> s.Trace.name ^ "(" ^ String.concat " " (List.map shape cs) ^ ")"

let span_shapes f =
  let now, _ = fake_clock () in
  List.map shape (with_collector now (fun () -> ignore (f ())))

let movie_doc =
  lazy
    (let module Workloads = Imprecise.Data.Workloads in
     let wl = Workloads.confusing () in
     let rules = Imprecise.Rulesets.movie ~genre:true ~title:true ~director:true () in
     let cfg =
       Integrate.config ~oracle:rules.Imprecise.Rulesets.oracle
         ~reconcile:rules.Imprecise.Rulesets.reconcile ~dtd:wl.Workloads.dtd ()
     in
     match Integrate.integrate cfg (Workloads.mpeg7_doc wl) (Workloads.imdb_doc wl) with
     | Ok doc -> doc
     | Error e -> Alcotest.failf "integration failed: %a" Integrate.pp_error e)

let test_library_span_hierarchy () =
  let movies = Lazy.force movie_doc in
  let pin what expected f = check Alcotest.(list string) what expected (span_shapes f) in
  let query = "pquery.rank(analyze.summary analyze.check analyze.plan " in
  pin "§VI Q1 via Auto takes the direct route"
    [ query ^ "direct)" ]
    (fun () -> Pquery.rank movies {|//movie[.//genre="Horror"]/title|});
  pin "count() enumerates" [ query ^ "enumerate)" ] (fun () ->
      Pquery.rank movies "count(//movie)");
  pin "rank_graded under a tripping budget descends every rung"
    [
      "pquery.rank_graded("
      ^ ("degrade.exact(" ^ query ^ "enumerate)) ")
      ^ "degrade.top_k(pquery.rank(analyze.summary analyze.check enumerate)) "
      ^ "degrade.sample(pquery.rank(analyze.summary analyze.check sample)))";
    ]
    (fun () -> Pquery.rank_graded ~budget:(Budget.create ~max_worlds:8 ()) wide_doc "count(//r/v)");
  let person nm tel = Imprecise.Tree.(element "person" [ leaf "nm" nm; leaf "tel" tel ]) in
  pin "a 3-source integrate_many: one integrate, then one incremental fold"
    [
      "integrate(reconcile block match merge(enumerate reconcile block match))";
      "integrate.incremental(reconcile block match reconcile block match reconcile block match)";
    ]
    (fun () ->
      Imprecise.integrate_many ~dtd:Addressbook.dtd
        ~blocker:(Imprecise.Blocking.key ~field:"nm" ())
        [
          Addressbook.source_a;
          Addressbook.source_b;
          Imprecise.Tree.element "addressbook" [ person "Mary" "3333" ];
        ]);
  let store = Store.create () in
  Store.put store "doc" (Store.Probabilistic movies);
  let dir = Filename.concat (Lazy.force obs_dir) "spans" in
  pin "save" [ "store.save" ] (fun () -> Store.save store ~dir);
  pin "load" [ "store.load" ] (fun () -> Store.load dir)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "obs.metrics",
      [
        t "counter registration is idempotent" test_counter_idempotent;
        t "histogram registration is idempotent" test_histogram_idempotent;
        t "snapshot: registration order, zeros included" test_snapshot_order_and_zeros;
        t "snapshot then reset" test_snapshot_then_reset;
      ] );
    ( "obs.domains",
      [
        t "8 domains x 100k increments count exactly" test_counter_domain_safe;
        t "parallel histogram observations are exact" test_histogram_domain_safe;
        t "concurrent registration is safe" test_registration_domain_safe;
      ] );
    ( "obs.trace",
      [
        t "nested spans under a fake clock" test_nested_spans_fake_clock;
        t "spans close on exceptions" test_span_closes_on_exception;
        t "no sink: with_span is pass-through" test_no_sink_fast_path;
        t "span stacks are domain-local" test_spans_domain_local;
        t "library ops pin their span tree" test_library_span_hierarchy;
      ] );
    ( "obs.json",
      [
        t "round-trip through to_string/parse" test_json_roundtrip;
        t "malformed inputs are rejected" test_json_parse_errors;
        t "unicode escapes decode to UTF-8" test_json_unicode_escapes;
        t "malformed surrogate halves are rejected" test_json_unicode_escape_errors;
      ] );
    ( "obs.quantile",
      [
        t "estimates within the declared error bound" test_quantile_accuracy;
        t "zeros and negatives report as 0" test_quantile_zeros;
        t "histogram stats expose p50/p90/p99" test_histogram_quantiles;
        t "to_text/to_json are sorted by metric name" test_rendered_output_sorted;
      ] );
    ( "obs.events",
      [
        t "emit is a no-op while disabled" test_event_disabled_is_noop;
        t "ring capacity and exact drop counting" test_event_ring_capacity_and_drops;
        t "event json round-trip and rejection" test_event_json_roundtrip;
        t "astral-plane text in events and metric labels"
          test_astral_events_and_metric_labels;
        t "8-domain emit stress: exact counters, no torn records"
          test_event_ring_domain_stress;
      ] );
    ( "obs.recorder",
      [
        t "records, notes, outcomes, slow flagging" test_op_events;
        t "a budget-tripped query emits one degrade event per rung"
          test_degrade_emits_events;
        t "the default clock is wall time" test_op_default_clock_is_wall_time;
      ] );
    ( "obs.io",
      [
        t "with_tag is dynamically scoped" test_with_tag_scoping;
        t "metered io attributes ops to tags" test_metered_io_attribution;
        t "integrate/oracle/store feed the global registry" test_global_wiring;
      ] );
  ]
