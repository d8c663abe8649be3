(* Cross-subsystem chaos harness.

   Every scenario scripts faults — transient or persistent IO failures,
   deadline expiry, work-budget exhaustion, explicit cancellation, mid-fold
   source failures — against a real subsystem (store persistence,
   integration, probabilistic querying, or the whole pipeline) and asserts
   the resilience contract: the operation either succeeds, fails with a
   clean typed error, or returns a sound degraded answer. Never a crash,
   never a corrupted store, never a poisoned cache.

     dune build @chaos       runs only this harness
     dune runtest            includes it

   Faults are driven by Imprecise.Resilience.Chaos plans feeding
   Store.Io.flaky; deadlines use injected fake clocks, and retry backoff
   sleeps are recorded rather than slept, so the whole harness is
   deterministic (one real-clock halt-timing scenario excepted). *)

module Store = Imprecise.Store
module Io = Imprecise.Store.Io
module Tree = Imprecise.Tree
module Pxml = Imprecise.Pxml
module Pquery = Imprecise.Pquery
module Answer = Imprecise.Answer
module Integrate = Imprecise.Integrate
module Budget = Imprecise.Resilience.Budget
module Retry = Imprecise.Resilience.Retry
module Degrade = Imprecise.Resilience.Degrade
module Chaos = Imprecise.Resilience.Chaos
module Obs = Imprecise.Obs
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Cache = Imprecise_pquery.Cache

let check = Alcotest.check

let count name = Obs.Metrics.count (Obs.Metrics.counter name)

(* ---- fixtures --------------------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "imprecise-chaos-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  dir

let doc_equal a b =
  match (a, b) with
  | Store.Certain x, Store.Certain y -> Tree.deep_equal x y
  | Store.Probabilistic x, Store.Probabilistic y -> Pxml.equal x y
  | _ -> false

let alpha = Store.Certain (Imprecise.parse_xml_exn "<alpha><item>one</item></alpha>")

let beta =
  Store.Probabilistic
    (Pxml.certain
       [
         Pxml.elem "beta"
           [
             Pxml.dist
               [
                 Pxml.choice ~prob:0.3 [ Pxml.text "maybe" ];
                 Pxml.choice ~prob:0.7 [ Pxml.text "likely" ];
               ];
           ];
       ])

let gamma = Store.Certain (Imprecise.parse_xml_exn "<gamma><g>3</g></gamma>")

let store_docs = [ ("alpha", alpha); ("beta", beta); ("gamma", gamma) ]

let make_store () =
  let s = Store.create () in
  List.iter (fun (n, d) -> Store.put s n d) store_docs;
  s

(* A document with [k] independent binary choices — 2^k possible worlds,
   every one enumerable, so budgets have something to run out on. *)
let wide_doc k =
  Pxml.certain
    [
      Pxml.elem "r"
        (List.init k (fun i ->
             Pxml.dist
               [
                 Pxml.choice ~prob:0.5
                   [ Pxml.Elem ("v", [], [ Pxml.certain [ Pxml.text (string_of_int i) ] ]) ];
                 Pxml.choice ~prob:0.5 [];
               ]))
    ]

let wide_query = "//r/v"

(* [with_fake_clock f] runs [f] with [Obs.Clock] advancing [step_ms] per
   consultation — deadlines expire deterministically, with no real time
   involved — and restores the default wall clock afterwards. *)
let with_fake_clock ?(step_ms = 1.) f =
  let t = ref 0. in
  Obs.Clock.set (fun () ->
      t := !t +. (step_ms /. 1000.);
      !t);
  Fun.protect ~finally:(fun () -> Obs.Clock.set Unix.gettimeofday) f

(* A retry policy whose sleeps are recorded, never slept. *)
let test_policy ?(max_attempts = 3) () = Retry.policy ~max_attempts ~seed:7 ()

let no_sleep = ignore

(* Fault the [spec]-scheduled hits of IO operation [op] (by name). *)
let flaky_io ?mode plan ops base =
  Io.flaky ?mode
    ~should_fail:(fun op _path ->
      match List.assoc_opt op ops with
      | Some site -> Chaos.fires plan site
      | None -> false)
    base

(* ---- store: transient faults a retry gets past ------------------------------ *)

let save_retry_scenario ~mode ~op ~site () =
  let dir = fresh_dir () in
  let plan = Chaos.plan [ (site, Chaos.First 1) ] in
  let io = flaky_io ~mode plan [ (op, site) ] Io.real in
  let before = count "resilience.retries" in
  let s = make_store () in
  (match Store.save ~io ~retry:(test_policy ()) ~sleep:no_sleep s ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save did not survive a transient %s fault: %s" site msg);
  check Alcotest.bool "the fault actually fired" true (Chaos.faults plan site = 1);
  check Alcotest.int "exactly one retry" (before + 1) (count "resilience.retries");
  (* the committed directory is fully intact *)
  match Store.load dir with
  | Error msg -> Alcotest.failf "reload failed: %s" msg
  | Ok (s', report) ->
      check Alcotest.bool "clean reload" true
        (Store.recovered_all report && report.Store.manifest = `Ok);
      List.iter
        (fun (n, d) ->
          match Store.get s' n with
          | Some d' when doc_equal d d' -> ()
          | _ -> Alcotest.failf "document %s corrupted by the retried save" n)
        store_docs;
      rm_rf dir

let scenario_save_transient_write_crash = save_retry_scenario ~mode:Io.Crash ~op:Io.Write ~site:"write"

let scenario_save_transient_write_torn = save_retry_scenario ~mode:Io.Torn ~op:Io.Write ~site:"write"

let scenario_save_transient_fsync_enospc =
  save_retry_scenario ~mode:Io.Enospc ~op:Io.Fsync ~site:"fsync"

let scenario_save_transient_rename_crash =
  save_retry_scenario ~mode:Io.Crash ~op:Io.Rename ~site:"rename"

let scenario_save_transient_mkdir_crash =
  save_retry_scenario ~mode:Io.Crash ~op:Io.Mkdir ~site:"mkdir"

(* Two consecutive faulted attempts, third succeeds: backoff walks the
   whole schedule and the store still commits. *)
let scenario_save_two_faults_then_heal () =
  let dir = fresh_dir () in
  let plan = Chaos.plan [ ("write", Chaos.First 2) ] in
  (* First 2 hits fault — but each attempt performs many writes, so hit 1
     kills attempt 1 and hit 2 kills attempt 2; attempt 3 is clean. *)
  let io = flaky_io ~mode:Io.Crash plan [ (Io.Write, "write") ] Io.real in
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let policy = test_policy () in
  let s = make_store () in
  (match Store.save ~io ~retry:policy ~sleep s ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save did not survive two transient faults: %s" msg);
  check Alcotest.int "two faults fired" 2 (Chaos.faults plan "write");
  check Alcotest.int "two backoff sleeps" 2 (List.length !sleeps);
  (* the recorded sleeps are exactly the deterministic jittered schedule *)
  List.iteri
    (fun i slept ->
      let attempt = List.length !sleeps - i in
      check (Alcotest.float 1e-9)
        (Printf.sprintf "sleep %d matches the schedule" attempt)
        (Retry.delay_ms policy ~attempt /. 1000.)
        slept)
    !sleeps;
  rm_rf dir

(* ---- store: persistent faults fail cleanly, prior commit survives ----------- *)

let scenario_save_persistent_fault_gives_up () =
  let dir = fresh_dir () in
  let s = make_store () in
  (match Store.save s ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "clean v1 save failed: %s" msg);
  (* now every write faults, forever: the v2 save must give up cleanly *)
  let plan = Chaos.plan [ ("write", Chaos.Always) ] in
  let io = flaky_io ~mode:Io.Crash plan [ (Io.Write, "write") ] Io.real in
  Store.put s "alpha" (Store.Certain (Imprecise.parse_xml_exn "<alpha>v2</alpha>"));
  let retries0 = count "resilience.retries" in
  let giveups0 = count "resilience.retry_giveups" in
  (match Store.save ~io ~retry:(test_policy ()) ~sleep:no_sleep s ~dir with
  | Ok () -> Alcotest.fail "save must not report success under a persistent fault"
  | Error _ -> ());
  check Alcotest.int "retried max_attempts - 1 times" (retries0 + 2) (count "resilience.retries");
  check Alcotest.int "one giveup" (giveups0 + 1) (count "resilience.retry_giveups");
  check Alcotest.int "three attempts hit the disk" 3 (Chaos.faults plan "write");
  (* the v1 commit is untouched *)
  match Store.load dir with
  | Error msg -> Alcotest.failf "v1 reload failed: %s" msg
  | Ok (s', report) ->
      check Alcotest.bool "v1 still clean" true
        (Store.recovered_all report && report.Store.manifest = `Ok);
      (match Store.get s' "alpha" with
      | Some d when doc_equal d alpha -> ()
      | _ -> Alcotest.fail "v1 alpha must survive the failed v2 save");
      rm_rf dir

let scenario_permanent_error_not_retried () =
  (* A permanent failure must fail on the first attempt — no retries. *)
  let attempts = ref 0 in
  let boom () =
    incr attempts;
    raise (Sys_error "Permission denied")
  in
  let retries0 = count "resilience.retries" in
  (match Retry.run ~sleep:no_sleep ~classify:Io.classify_error (test_policy ()) boom with
  | _ -> Alcotest.fail "permanent failure must raise"
  | exception Sys_error _ -> ());
  check Alcotest.int "single attempt" 1 !attempts;
  check Alcotest.int "no retries" retries0 (count "resilience.retries")

let scenario_transient_fragment_classification () =
  List.iter
    (fun (e, expected, name) ->
      check Alcotest.bool name true (Io.classify_error e = expected))
    [
      (Io.Fault "injected", Retry.Transient, "injected faults are transient");
      (Sys_error "foo: No space left on device", Retry.Transient, "ENOSPC is transient");
      (Sys_error "read: Interrupted system call", Retry.Transient, "EINTR is transient");
      (Sys_error "bar: Permission denied", Retry.Permanent, "EACCES is permanent");
      (Sys_error "No such file or directory", Retry.Permanent, "ENOENT is permanent");
      (Not_found, Retry.Permanent, "non-IO exceptions are permanent");
    ]

(* ---- store: faulted loads ---------------------------------------------------- *)

let saved_store () =
  let dir = fresh_dir () in
  let s = make_store () in
  (match Store.save s ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fixture save failed: %s" msg);
  dir

let scenario_load_transient_read_crash () =
  let dir = saved_store () in
  let plan = Chaos.plan [ ("read", Chaos.First 1) ] in
  let io = flaky_io ~mode:Io.Crash plan [ (Io.Read, "read") ] Io.real in
  (match Store.load ~io ~retry:(test_policy ()) ~sleep:no_sleep dir with
  | Error msg -> Alcotest.failf "load did not survive a transient read fault: %s" msg
  | Ok (s', report) ->
      check Alcotest.bool "clean load" true
        (Store.recovered_all report && report.Store.manifest = `Ok);
      check Alcotest.int "all documents back" (List.length store_docs) (Store.size s'));
  check Alcotest.bool "the fault actually fired" true (Chaos.faults plan "read" = 1);
  rm_rf dir

let scenario_load_transient_listdir_crash () =
  let dir = saved_store () in
  let plan = Chaos.plan [ ("ls", Chaos.First 1) ] in
  let io = flaky_io ~mode:Io.Crash plan [ (Io.List_dir, "ls") ] Io.real in
  (match Store.load ~io ~retry:(test_policy ()) ~sleep:no_sleep dir with
  | Error msg -> Alcotest.failf "load did not survive a transient list_dir fault: %s" msg
  | Ok (s', report) ->
      check Alcotest.bool "clean load" true (Store.recovered_all report);
      check Alcotest.int "all documents back" (List.length store_docs) (Store.size s'));
  rm_rf dir

let scenario_load_torn_read_is_quarantined () =
  (* A torn read silently truncates the data — no exception to retry, so
     the CRC gate is the only defence. The damaged document must be
     reported, and never returned with wrong bytes. *)
  let dir = saved_store () in
  let plan = Chaos.plan [ ("read", Chaos.At [ 2 ]) ] in
  let io = flaky_io ~mode:Io.Torn plan [ (Io.Read, "read") ] Io.real in
  (match Store.load ~io dir with
  | Error msg -> Alcotest.failf "salvage load must not abort: %s" msg
  | Ok (s', report) ->
      let damaged =
        List.filter
          (fun (_, o) -> match o with Store.Quarantined _ -> true | _ -> false)
          report.Store.docs
      in
      check Alcotest.int "exactly one document caught by the CRC gate" 1 (List.length damaged);
      (* every document that did come back is byte-exact *)
      List.iter
        (fun (n, d) ->
          match Store.get s' n with
          | None -> ()
          | Some d' ->
              check Alcotest.bool (n ^ " returned uncorrupted") true (doc_equal d d'))
        store_docs);
  rm_rf dir

let scenario_load_persistent_fault_gives_up () =
  let dir = saved_store () in
  let plan = Chaos.plan [ ("read", Chaos.Always) ] in
  let io = flaky_io ~mode:Io.Crash plan [ (Io.Read, "read") ] Io.real in
  let giveups0 = count "resilience.retry_giveups" in
  (match Store.load ~io ~retry:(test_policy ()) ~sleep:no_sleep ~mode:Store.Strict dir with
  | Ok _ -> Alcotest.fail "strict load must not succeed when every read faults"
  | Error _ -> ());
  check Alcotest.int "one giveup" (giveups0 + 1) (count "resilience.retry_giveups");
  (* the directory itself is untouched — a clean load still works *)
  (match Store.load dir with
  | Error msg -> Alcotest.failf "directory was disturbed by the failed loads: %s" msg
  | Ok (_, report) -> check Alcotest.bool "still clean" true (Store.recovered_all report));
  rm_rf dir

(* ---- chaos-plan accounting --------------------------------------------------- *)

let scenario_plan_schedules () =
  let plan =
    Chaos.plan
      [
        ("never", Chaos.Never);
        ("always", Chaos.Always);
        ("first2", Chaos.First 2);
        ("at", Chaos.At [ 2; 4 ]);
        ("every3", Chaos.Every 3);
      ]
  in
  let fire site n = List.init n (fun _ -> Chaos.fires plan site) in
  check (Alcotest.list Alcotest.bool) "Never" [ false; false; false ] (fire "never" 3);
  check (Alcotest.list Alcotest.bool) "Always" [ true; true ] (fire "always" 2);
  check (Alcotest.list Alcotest.bool) "First 2" [ true; true; false; false ] (fire "first2" 4);
  check (Alcotest.list Alcotest.bool) "At [2;4]" [ false; true; false; true; false ]
    (fire "at" 5);
  check (Alcotest.list Alcotest.bool) "Every 3" [ false; false; true; false; false; true ]
    (fire "every3" 6);
  check Alcotest.int "hits counted" 4 (Chaos.hits plan "first2");
  check Alcotest.int "faults counted" 2 (Chaos.faults plan "first2");
  check Alcotest.int "report covers every site" 5 (List.length (Chaos.report plan))

let scenario_plan_unknown_site () =
  let plan = Chaos.plan [ ("known", Chaos.Always) ] in
  check Alcotest.bool "unknown sites never fire" false (Chaos.fires plan "unknown");
  check Alcotest.int "but are counted" 1 (Chaos.hits plan "unknown");
  check Alcotest.int "and never fault" 0 (Chaos.faults plan "unknown")

(* ---- pquery: budgets --------------------------------------------------------- *)

let scenario_query_world_budget_trips () =
  let doc = wide_doc 10 in
  let worlds0 = count "resilience.world_budget_exceeded" in
  let budget = Budget.create ~max_worlds:50 () in
  (match Pquery.rank ~budget ~strategy:Pquery.Enumerate_only doc wide_query with
  | _ -> Alcotest.fail "50 worlds cannot cover 2^10"
  | exception Budget.Exceeded Budget.Worlds -> ()
  | exception Budget.Exceeded r ->
      Alcotest.failf "wrong trip reason: %s" (Budget.reason_to_string r));
  check Alcotest.int "world-budget counter bumped once" (worlds0 + 1)
    (count "resilience.world_budget_exceeded")

let scenario_query_deadline_trips () =
  let doc = wide_doc 10 in
  let deadlines0 = count "resilience.deadline_exceeded" in
  (* the clock advances 1 ms per consultation: a 5 ms deadline expires
     deterministically a few ticks in, with no real time involved *)
  (with_fake_clock @@ fun () ->
   let budget = Budget.create ~timeout_ms:5 () in
   match Pquery.rank ~budget ~strategy:Pquery.Enumerate_only doc wide_query with
   | _ -> Alcotest.fail "the fake clock must expire the deadline"
   | exception Budget.Exceeded Budget.Deadline -> ()
   | exception Budget.Exceeded r ->
       Alcotest.failf "wrong trip reason: %s" (Budget.reason_to_string r));
  check Alcotest.int "deadline counter bumped once" (deadlines0 + 1)
    (count "resilience.deadline_exceeded")

let scenario_query_cancelled_before_start () =
  let doc = wide_doc 4 in
  let budget = Budget.create () in
  Budget.cancel budget;
  match Pquery.rank ~budget doc wide_query with
  | _ -> Alcotest.fail "a cancelled budget must stop the query on entry"
  | exception Budget.Exceeded Budget.Cancelled -> ()
  | exception Budget.Exceeded r ->
      Alcotest.failf "wrong trip reason: %s" (Budget.reason_to_string r)

let scenario_query_sampling_respects_budget () =
  let doc = wide_doc 6 in
  let budget = Budget.create ~max_worlds:50 () in
  match
    Pquery.rank ~budget ~strategy:(Pquery.Sample { n = 500; seed = 3 }) doc wide_query
  with
  | _ -> Alcotest.fail "sampling 500 worlds must trip a 50-world budget"
  | exception Budget.Exceeded Budget.Worlds -> ()
  | exception Budget.Exceeded r ->
      Alcotest.failf "wrong trip reason: %s" (Budget.reason_to_string r)

(* ---- pquery: graceful degradation -------------------------------------------- *)

let max_abs_error ~exact answers =
  let prob_of v = match List.find_opt (fun a -> a.Answer.value = v) exact with
    | Some a -> a.Answer.prob
    | None -> 0.
  in
  List.fold_left
    (fun acc a -> Float.max acc (Float.abs (a.Answer.prob -. prob_of a.Answer.value)))
    0. answers

let scenario_graded_exact_when_budget_suffices () =
  let doc = wide_doc 5 in
  let degraded0 = count "pquery.degraded" in
  let budget = Budget.create ~max_worlds:1_000_000 () in
  let graded = Pquery.rank_graded ~budget doc wide_query in
  check Alcotest.bool "grade is Exact" true (Degrade.is_exact graded.Degrade.grade);
  check Alcotest.int "no degradation counted" degraded0 (count "pquery.degraded");
  let exact = Pquery.rank doc wide_query in
  check Alcotest.bool "answer is the exact ranking" true
    (Answer.equal ~tolerance:1e-12 exact graded.Degrade.value)

let scenario_graded_refuses_bad_top_k () =
  (* an invalid argument is not a budget trip: top_k = 0 is refused on
     entry, before any rung of the ladder runs *)
  let doc = wide_doc 5 in
  let budget = Budget.create ~max_worlds:1_000_000 () in
  let degraded0 = count "pquery.degraded" in
  let steps0 = count "resilience.degradations" in
  (match Pquery.rank_graded ~budget ~top_k:0 doc wide_query with
  | _ -> Alcotest.fail "top_k = 0 must be refused"
  | exception Pquery.Cannot_answer _ -> ());
  check Alcotest.int "top_k = 0 took no ladder step" steps0 (count "resilience.degradations");
  check Alcotest.int "top_k = 0 counted no degradation" degraded0 (count "pquery.degraded")

let scenario_graded_degrades_under_world_budget () =
  let doc = wide_doc 10 in
  (* count(..) is outside the direct evaluator's class, so the exact rung
     must enumerate — and a 64-world budget cannot cover 2^10 worlds *)
  let wide_query = "count(//v)" in
  let degraded0 = count "pquery.degraded" in
  let budget = Budget.create ~max_worlds:64 () in
  let graded = Pquery.rank_graded ~budget doc wide_query in
  (match graded.Degrade.grade with
  | Degrade.Exact -> Alcotest.fail "64 worlds cannot rank 2^10 exactly"
  | Degrade.Approximate { tolerance; confidence; _ } ->
      check Alcotest.bool "a tolerance is declared" true (tolerance > 0.);
      check Alcotest.bool "a confidence is declared" true (confidence > 0.9);
      let exact = Pquery.rank doc wide_query in
      let err = max_abs_error ~exact graded.Degrade.value in
      check Alcotest.bool
        (Printf.sprintf "max error %.4f within declared tolerance %.4f" err tolerance)
        true
        (err <= tolerance));
  check Alcotest.int "degradation counted once" (degraded0 + 1) (count "pquery.degraded")

let scenario_graded_answers_under_cancellation () =
  (* Even a budget cancelled before the call produces an answer: the
     sampling rung runs unbudgeted, by design. *)
  let doc = wide_doc 8 in
  let budget = Budget.create () in
  Budget.cancel budget;
  let graded = Pquery.rank_graded ~budget doc wide_query in
  (match graded.Degrade.grade with
  | Degrade.Exact -> Alcotest.fail "a cancelled budget cannot produce an exact answer"
  | Degrade.Approximate { rung; _ } -> check Alcotest.string "fell to sampling" "sample" rung);
  check Alcotest.bool "still produced a ranking" true (graded.Degrade.value <> [])

let scenario_graded_soundness_fuzz () =
  (* Random documents, starved budget: the degraded probabilities must
     stay within the declared tolerance of the exact ones. Deterministic
     seeds; small slack on top of the declared bound for the 0.1%
     Hoeffding tail across values. *)
  let rng = ref (Prng.make 42) in
  for case = 1 to 25 do
    let doc, rng' = Random_docs.pxml !rng ~depth:3 in
    rng := rng';
    if Pxml.world_count doc <= 50_000. then begin
      let exact = Pquery.rank doc "//*" in
      let budget = Budget.create ~max_worlds:16 () in
      let graded = Pquery.rank_graded ~budget doc "//*" in
      let tolerance =
        match graded.Degrade.grade with
        | Degrade.Exact -> 1e-9
        | Degrade.Approximate { tolerance; _ } -> tolerance
      in
      let err = max_abs_error ~exact graded.Degrade.value in
      if err > tolerance +. 0.02 then
        Alcotest.failf "case %d: degraded answer off by %.4f > declared %.4f" case err
          tolerance
    end
  done

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let scenario_query_store_budget_error_is_clean () =
  let store = Store.create () in
  Store.put store "wide" (Store.Probabilistic (wide_doc 10));
  let budget = Budget.create ~max_worlds:50 () in
  match Imprecise.query_store ~budget ~strategy:Pquery.Enumerate_only store "wide" wide_query with
  | Ok _ -> Alcotest.fail "50 worlds cannot cover 2^10"
  | Error msg -> check Alcotest.bool "error names the budget" true (contains ~needle:"budget" msg)

(* ---- pquery: the cache cannot be poisoned ------------------------------------ *)

let scenario_cancelled_query_never_caches () =
  let doc = wide_doc 10 in
  let len0 = Cache.length Cache.global in
  let budget = Budget.create ~max_worlds:50 () in
  (match
     Pquery.rank ~budget ~strategy:Pquery.Enumerate_only ~cache:("chaos-poison", 1) doc
       wide_query
   with
  | _ -> Alcotest.fail "the budget must trip"
  | exception Budget.Exceeded _ -> ());
  check Alcotest.int "tripped query cached nothing" len0 (Cache.length Cache.global);
  (* the same key now computes cleanly — and must be the full exact answer,
     not anything left over from the cancelled run *)
  let hits0 = count "pquery.cache.hit" in
  let answers =
    Pquery.rank ~strategy:Pquery.Enumerate_only ~cache:("chaos-poison", 1) doc wide_query
  in
  check Alcotest.int "recomputation was not served from cache" hits0 (count "pquery.cache.hit");
  let exact = Pquery.rank ~strategy:Pquery.Enumerate_only doc wide_query in
  check Alcotest.bool "recomputed answer is exact" true
    (Answer.equal ~tolerance:1e-12 exact answers)

(* ---- integration under budgets ------------------------------------------------ *)

let similar_books n suffix =
  (* n near-identical persons: a dense candidate grid for the matcher *)
  let person i =
    Printf.sprintf "<person><nm>Person%d</nm><tel>555-%04d%s</tel></person>" (i mod 3) i
      suffix
  in
  Imprecise.parse_xml_exn
    (Printf.sprintf "<addressbook>%s</addressbook>"
       (String.concat "" (List.init n person)))

let scenario_integrate_pair_budget_trips () =
  let left = similar_books 8 "" and right = similar_books 8 "x" in
  let budget = Budget.create ~max_worlds:10 () in
  match Imprecise.integrate_many ~budget [ left; right ] with
  | Ok _ -> Alcotest.fail "10 grid cells cannot cover an 8x8 candidate grid"
  | Error (Integrate.Budget_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e

let scenario_integrate_deadline_trips () =
  let left = similar_books 8 "" and right = similar_books 8 "x" in
  with_fake_clock @@ fun () ->
  let budget = Budget.create ~timeout_ms:5 () in
  match Imprecise.integrate_many ~budget [ left; right ] with
  | Ok _ -> Alcotest.fail "the fake clock must expire the deadline"
  | Error (Integrate.Budget_exceeded reason) ->
      check Alcotest.bool "reason is the deadline" true
        (reason = Budget.reason_to_string Budget.Deadline)
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e

let scenario_integrate_parallel_budget_trip_is_clean () =
  (* The banded grid with jobs=4 shares one budget; the trip must come
     back as one clean typed error with all worker domains joined. *)
  let left = similar_books 12 "" and right = similar_books 12 "x" in
  for _ = 1 to 3 do
    let budget = Budget.create ~max_worlds:20 () in
    match Imprecise.integrate_many ~jobs:4 ~budget [ left; right ] with
    | Ok _ -> Alcotest.fail "20 grid cells cannot cover a 12x12 candidate grid"
    | Error (Integrate.Budget_exceeded _) -> ()
    | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e
  done

let scenario_integrate_budget_spares_decision_cache () =
  (* A budget trip mid-fold must not leave junk in a shared decision
     cache: rerunning unbudgeted with the same cache gives the same
     document as a fresh run. Distinct names keep the fold small enough
     to materialise; a 3-unit budget still trips on the first grid. *)
  let book suffix =
    Imprecise.parse_xml_exn
      (Printf.sprintf
         "<addressbook><person><nm>Alice</nm><tel>555-0001%s</tel></person>\
          <person><nm>Bob</nm><tel>555-0002%s</tel></person></addressbook>"
         suffix suffix)
  in
  let sources = [ book ""; book "x"; book "y" ] in
  let decisions = Imprecise.Decision_cache.create () in
  (match
     Imprecise.integrate_many ~decisions ~budget:(Budget.create ~max_worlds:3 ()) sources
   with
  | Ok _ -> Alcotest.fail "3 work units cannot cover the fold"
  | Error (Integrate.Budget_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e);
  let reused =
    match Imprecise.integrate_many ~decisions sources with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "unbudgeted rerun failed: %a" Integrate.pp_error e
  in
  let fresh =
    match Imprecise.integrate_many sources with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "fresh run failed: %a" Integrate.pp_error e
  in
  check Alcotest.bool "cache survived the trip unpoisoned" true (Pxml.equal fresh reused)

let scenario_stats_budget_trips () =
  let left = similar_books 10 "" and right = similar_books 10 "x" in
  match Imprecise.integration_stats ~budget:(Budget.create ~max_worlds:10 ()) left right with
  | Ok _ -> Alcotest.fail "10 cells cannot cover a 10x10 grid"
  | Error (Integrate.Budget_exceeded _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Integrate.pp_error e

(* ---- budget mechanics ---------------------------------------------------------- *)

let scenario_sub_budget_trip_spares_parent () =
  let parent = Budget.create ~max_worlds:100 () in
  let child = Budget.sub ~fraction:0.1 parent in
  (match
     for _ = 1 to 100 do
       Budget.tick child
     done
   with
  | () -> Alcotest.fail "the child's 10-world slice must trip"
  | exception Budget.Exceeded Budget.Worlds -> ());
  check Alcotest.bool "parent still live" true (Budget.exceeded parent = None);
  (* the child's ticks drained the parent's pool *)
  check Alcotest.bool "parent pool drained by child ticks" true
    (match Budget.remaining_worlds parent with Some n -> n < 100 | None -> false);
  Budget.tick parent (* parent still usable *)

let scenario_budget_trip_reason_is_stable () =
  let b = Budget.create ~max_worlds:1 () in
  (match Budget.tick ~n:2 b with
  | () -> Alcotest.fail "must trip"
  | exception Budget.Exceeded Budget.Worlds -> ());
  Budget.cancel b;
  (* the original reason wins over the later cancel, on every check *)
  match Budget.check b with
  | () -> Alcotest.fail "tripped budgets fail every check"
  | exception Budget.Exceeded Budget.Worlds -> ()
  | exception Budget.Exceeded r ->
      Alcotest.failf "original reason lost: %s" (Budget.reason_to_string r)

let scenario_deadline_halts_within_bound () =
  (* The one real-clock scenario: a deadline of D ms must halt an
     open-ended enumeration well within the acceptance bound of 2·D. *)
  let doc = wide_doc 24 (* 16M worlds: far more than any deadline allows *) in
  let d_ms = 250 in
  let budget = Budget.create ~timeout_ms:d_ms () in
  let t0 = Unix.gettimeofday () in
  (match
     Pquery.rank ~budget ~strategy:Pquery.Enumerate_only ~world_limit:1e9 doc wide_query
   with
  | _ -> Alcotest.fail "enumeration of 2^24 worlds must hit the deadline"
  | exception Budget.Exceeded Budget.Deadline -> ());
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check Alcotest.bool
    (Printf.sprintf "halted in %.0f ms < 2 x %d ms" elapsed_ms d_ms)
    true
    (elapsed_ms < 2. *. float_of_int d_ms)

(* ---- the full pipeline under chaos -------------------------------------------- *)

let scenario_full_pipeline_chaos () =
  (* integrate -> save (through transient faults, with retry) -> load ->
     budgeted graded query. End to end: no crash, clean store, sound
     answer. *)
  let dir = fresh_dir () in
  let doc =
    match Imprecise.integrate_many [ similar_books 5 ""; similar_books 5 "x" ] with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "pipeline integrate failed: %a" Integrate.pp_error e
  in
  let s = Store.create () in
  Store.put s "merged" (Store.Probabilistic doc);
  let plan =
    Chaos.plan [ ("write", Chaos.At [ 2 ]); ("fsync", Chaos.First 1) ]
  in
  let io =
    flaky_io ~mode:Io.Enospc plan [ (Io.Write, "write"); (Io.Fsync, "fsync") ] Io.real
  in
  (match Store.save ~io ~retry:(test_policy ~max_attempts:5 ()) ~sleep:no_sleep s ~dir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "pipeline save failed: %s" msg);
  let s', report =
    match Store.load dir with
    | Ok r -> r
    | Error msg -> Alcotest.failf "pipeline load failed: %s" msg
  in
  check Alcotest.bool "store clean after chaos" true
    (Store.recovered_all report && report.Store.manifest = `Ok);
  let loaded =
    match Store.get_probabilistic s' "merged" with
    | Some d -> d
    | None -> Alcotest.fail "merged document lost"
  in
  check Alcotest.bool "document round-tripped" true (Pxml.equal doc loaded);
  let graded =
    Pquery.rank_graded ~budget:(Budget.create ~max_worlds:40 ()) loaded "//person/nm"
  in
  let exact = Pquery.rank loaded "//person/nm" in
  let tolerance =
    match graded.Degrade.grade with
    | Degrade.Exact -> 1e-9
    | Degrade.Approximate { tolerance; _ } -> tolerance
  in
  check Alcotest.bool "pipeline answer sound" true
    (max_abs_error ~exact graded.Degrade.value <= tolerance +. 0.02);
  rm_rf dir

(* ---- suite -------------------------------------------------------------------- *)

let scenarios =
  [
    ("save: transient write crash, retried", scenario_save_transient_write_crash);
    ("save: transient torn write, retried", scenario_save_transient_write_torn);
    ("save: transient ENOSPC at fsync, retried", scenario_save_transient_fsync_enospc);
    ("save: transient rename crash, retried", scenario_save_transient_rename_crash);
    ("save: transient mkdir crash, retried", scenario_save_transient_mkdir_crash);
    ("save: two faults then heal, scheduled backoff", scenario_save_two_faults_then_heal);
    ("save: persistent fault gives up, v1 intact", scenario_save_persistent_fault_gives_up);
    ("retry: permanent errors are not retried", scenario_permanent_error_not_retried);
    ("retry: fault classification", scenario_transient_fragment_classification);
    ("load: transient read crash, retried", scenario_load_transient_read_crash);
    ("load: transient list_dir crash, retried", scenario_load_transient_listdir_crash);
    ("load: torn read caught by the CRC gate", scenario_load_torn_read_is_quarantined);
    ("load: persistent fault gives up cleanly", scenario_load_persistent_fault_gives_up);
    ("chaos: schedules fire exactly as scripted", scenario_plan_schedules);
    ("chaos: unknown sites are counted, never fire", scenario_plan_unknown_site);
    ("query: world budget trips enumeration", scenario_query_world_budget_trips);
    ("query: deadline trips enumeration", scenario_query_deadline_trips);
    ("query: cancellation stops the query on entry", scenario_query_cancelled_before_start);
    ("query: sampling path respects the budget", scenario_query_sampling_respects_budget);
    ("degrade: exact when the budget suffices", scenario_graded_exact_when_budget_suffices);
    ("degrade: invalid top_k is refused before the ladder", scenario_graded_refuses_bad_top_k);
    ("degrade: sound approximate answer when starved", scenario_graded_degrades_under_world_budget);
    ("degrade: answers even under cancellation", scenario_graded_answers_under_cancellation);
    ("degrade: fuzzed soundness on random documents", scenario_graded_soundness_fuzz);
    ("query_store: budget trip is a clean Error", scenario_query_store_budget_error_is_clean);
    ("cache: cancelled queries cannot poison it", scenario_cancelled_query_never_caches);
    ("integrate: pair budget trips the grid", scenario_integrate_pair_budget_trips);
    ("integrate: deadline trips the grid", scenario_integrate_deadline_trips);
    ("integrate: parallel trip joins all bands", scenario_integrate_parallel_budget_trip_is_clean);
    ("integrate: trip leaves the decision cache sound", scenario_integrate_budget_spares_decision_cache);
    ("stats: budget trips the estimator", scenario_stats_budget_trips);
    ("budget: child trip spares the parent", scenario_sub_budget_trip_spares_parent);
    ("budget: first trip reason is stable", scenario_budget_trip_reason_is_stable);
    ("budget: deadline halts within 2x the deadline", scenario_deadline_halts_within_bound);
    ("pipeline: integrate-save-load-query under chaos", scenario_full_pipeline_chaos);
  ]

let scenario_count_floor () =
  check Alcotest.bool
    (Printf.sprintf "%d scenarios >= 25" (List.length scenarios))
    true
    (List.length scenarios >= 25)

let () =
  let cases =
    List.map (fun (name, f) -> Alcotest.test_case name `Quick f) scenarios
    @ [ Alcotest.test_case "at least 25 scenarios" `Quick scenario_count_floor ]
  in
  Alcotest.run "chaos" [ ("chaos", cases) ]
