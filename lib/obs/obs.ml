(* Telemetry for the whole stack: counters and histograms in a registry
   (Metrics), structured events (Event), nested timing spans and op
   brackets on one frame stack (Trace), all on one clock (Clock), and the
   minimal JSON they render to (Json). See obs.mli. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* Floats must round-trip and must not print as "nan"/"inf" (not JSON).
     %.17g round-trips any float; shorter forms win when exact. *)
  let float_repr f =
    if Float.is_nan f then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else if f = Float.infinity then "1e999"
    else if f = Float.neg_infinity then "-1e999"
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let to_string ?indent v =
    let buf = Buffer.create 256 in
    let nl level =
      match indent with
      | None -> ()
      | Some n ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (n * level) ' ')
    in
    let rec go level v =
      match v with
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> Buffer.add_string buf (float_repr f)
      | String s ->
          Buffer.add_char buf '"';
          escape buf s;
          Buffer.add_char buf '"'
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char buf ',';
              nl (level + 1);
              go (level + 1) item)
            items;
          nl level;
          Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, item) ->
              if i > 0 then Buffer.add_char buf ',';
              nl (level + 1);
              Buffer.add_char buf '"';
              escape buf k;
              Buffer.add_string buf "\":";
              if indent <> None then Buffer.add_char buf ' ';
              go (level + 1) item)
            fields;
          nl level;
          Buffer.add_char buf '}'
    in
    go 0 v;
    Buffer.contents buf

  exception Bad of string

  (* Recursive-descent parser for the subset above. Escapes are decoded to
     their bytes; \uXXXX escapes — including surrogate pairs, which decode
     to the astral-plane scalar they encode — become UTF-8. Enough to
     validate and read back what [to_string] writes (and what other
     emitters write about non-ASCII labels) — which is what the bench
     smoke-check and snapshot tooling need. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char buf '"'
                 | '\\' -> Buffer.add_char buf '\\'
                 | '/' -> Buffer.add_char buf '/'
                 | 'n' -> Buffer.add_char buf '\n'
                 | 'r' -> Buffer.add_char buf '\r'
                 | 't' -> Buffer.add_char buf '\t'
                 | 'b' -> Buffer.add_char buf '\b'
                 | 'f' -> Buffer.add_char buf '\012'
                 | 'u' ->
                     (* [read_hex] consumes the four digits after the 'u' at
                        [!pos], leaving [!pos] on the last digit (the shared
                        [incr pos] below then steps past it). *)
                     let read_hex () =
                       if !pos + 4 >= n then fail "truncated \\u escape";
                       let hex = String.sub s (!pos + 1) 4 in
                       String.iter
                         (fun c ->
                           match c with
                           | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                           | _ -> fail (Printf.sprintf "bad \\u escape \\u%s" hex))
                         hex;
                       pos := !pos + 4;
                       int_of_string ("0x" ^ hex)
                     in
                     let code = read_hex () in
                     let scalar =
                       if code >= 0xD800 && code <= 0xDBFF then
                         (* a high surrogate is only meaningful with the low
                            half immediately behind it *)
                         if !pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u'
                         then begin
                           pos := !pos + 2;
                           let low = read_hex () in
                           if low < 0xDC00 || low > 0xDFFF then
                             fail
                               (Printf.sprintf
                                  "high surrogate \\u%04x followed by \\u%04x, \
                                   which is not a low surrogate"
                                  code low);
                           0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                         end
                         else fail (Printf.sprintf "lone high surrogate \\u%04x" code)
                       else if code >= 0xDC00 && code <= 0xDFFF then
                         fail (Printf.sprintf "lone low surrogate \\u%04x" code)
                       else code
                     in
                     Buffer.add_utf_8_uchar buf (Uchar.of_int scalar)
                 | c -> fail (Printf.sprintf "bad escape %C" c));
              incr pos;
              go ()
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && number_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  fields ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  items (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (items [])
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

module Clock = struct
  (* The one process clock: span bounds, op durations, event timestamps and
     budget deadlines all read it. Wall time by default; a benchmark may
     install a monotonic clock, a test a fake one. The slot is atomic so a
     read from a spawned domain is well-defined. *)
  let state : (unit -> float) Atomic.t = Atomic.make Unix.gettimeofday
  let set now = Atomic.set state now
  let now () = (Atomic.get state) ()
end

module Quantile = struct
  (* Streaming quantile estimation over a fixed log-bucketed histogram
     (DDSketch-style). A positive value lands in bucket
     floor(ln v / ln gamma); reporting the bucket's geometric midpoint
     bounds the *relative* error of any quantile by sqrt(gamma) - 1,
     about 5.1% with alpha = 0.05. Buckets cover gamma^-128 .. gamma^192
     (roughly 2.7e-6 .. 2.2e8 in whatever unit is observed — picoseconds
     to days when the unit is milliseconds); values outside clamp to the
     edge buckets, zero and negative values count in a dedicated zero
     bucket. Memory is one fixed int array; no allocation per [add].

     Not internally synchronised: the one inside a [Metrics] histogram is
     guarded by that histogram's mutex, standalone uses (the [report]
     aggregator) are single-threaded. *)
  let alpha = 0.05
  let gamma = (1. +. alpha) /. (1. -. alpha)
  let log_gamma = Float.log gamma
  let offset = 128
  let nbuckets = 320

  (* [lo] and [hi] are the least and greatest observation: a bucket's
     midpoint can lie beyond them, and a reading never should. *)
  type t = {
    mutable total : int;
    mutable zeros : int;
    mutable lo : float;
    mutable hi : float;
    counts : int array;
  }

  let create () =
    { total = 0; zeros = 0; lo = infinity; hi = neg_infinity; counts = Array.make nbuckets 0 }

  let bucket v =
    let i = offset + int_of_float (Float.floor (Float.log v /. log_gamma)) in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

  let add t v =
    t.total <- t.total + 1;
    t.lo <- Float.min t.lo v;
    t.hi <- Float.max t.hi v;
    if v <= 0. then t.zeros <- t.zeros + 1
    else begin
      let i = bucket v in
      t.counts.(i) <- t.counts.(i) + 1
    end

  let clear t =
    t.total <- 0;
    t.zeros <- 0;
    t.lo <- infinity;
    t.hi <- neg_infinity;
    Array.fill t.counts 0 nbuckets 0

  let count t = t.total

  let estimate t q =
    if t.total = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
      let reading =
        if rank <= t.zeros then 0.
        else begin
          let seen = ref t.zeros in
          let found = ref (-1) in
          let i = ref 0 in
          while !found < 0 && !i < nbuckets do
            seen := !seen + t.counts.(!i);
            if !seen >= rank then found := !i;
            incr i
          done;
          if !found < 0 then 0. (* unreachable: total = zeros + sum counts *)
          else Float.exp ((float_of_int (!found - offset) +. 0.5) *. log_gamma)
        end
      in
      Float.min t.hi (Float.max t.lo reading)
    end
end

module Metrics = struct
  (* Domain-safety: instrumented code runs inside spawned domains (parallel
     integration and query enumeration), so counters are [Atomic.t] — an
     increment is one fetch-and-add, never a lost update — and the
     multi-field histograms take a per-histogram mutex. Registration (rare,
     usually at module load) is serialised by a per-registry mutex. *)
  type counter = { cname : string; n : int Atomic.t }

  type histogram = {
    hname : string;
    hlock : Mutex.t;
    mutable obs : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
    sketch : Quantile.t;
  }

  type registry = {
    lock : Mutex.t;
    counters : (string, counter) Hashtbl.t;
    histograms : (string, histogram) Hashtbl.t;
    (* registration order, oldest first, for stable rendering *)
    mutable rev_names : (string * [ `Counter | `Histogram ]) list;
  }

  let registry () =
    {
      lock = Mutex.create ();
      counters = Hashtbl.create 32;
      histograms = Hashtbl.create 16;
      rev_names = [];
    }

  let global = registry ()

  let counter ?(registry = global) name =
    Mutex.protect registry.lock @@ fun () ->
    match Hashtbl.find_opt registry.counters name with
    | Some c -> c
    | None ->
        let c = { cname = name; n = Atomic.make 0 } in
        Hashtbl.add registry.counters name c;
        registry.rev_names <- (name, `Counter) :: registry.rev_names;
        c

  let histogram ?(registry = global) name =
    Mutex.protect registry.lock @@ fun () ->
    match Hashtbl.find_opt registry.histograms name with
    | Some h -> h
    | None ->
        let h =
          {
            hname = name;
            hlock = Mutex.create ();
            obs = 0;
            sum = 0.;
            mn = Float.infinity;
            mx = Float.neg_infinity;
            sketch = Quantile.create ();
          }
        in
        Hashtbl.add registry.histograms name h;
        registry.rev_names <- (name, `Histogram) :: registry.rev_names;
        h

  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.n by)

  let count c = Atomic.get c.n

  let observe h v =
    Mutex.protect h.hlock @@ fun () ->
    h.obs <- h.obs + 1;
    h.sum <- h.sum +. v;
    if v < h.mn then h.mn <- v;
    if v > h.mx then h.mx <- v;
    Quantile.add h.sketch v

  type hstats = {
    observations : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  let stats h =
    Mutex.protect h.hlock @@ fun () ->
    {
      observations = h.obs;
      sum = h.sum;
      min = h.mn;
      max = h.mx;
      p50 = Quantile.estimate h.sketch 0.50;
      p90 = Quantile.estimate h.sketch 0.90;
      p99 = Quantile.estimate h.sketch 0.99;
    }

  let mean s = if s.observations = 0 then 0. else s.sum /. float_of_int s.observations

  type snapshot = {
    counters : (string * int) list;
    histograms : (string * hstats) list;
  }

  let snapshot ?(registry = global) () =
    (* the registry lock also excludes concurrent registration, so the
       Hashtbl reads below never race a resize *)
    Mutex.protect registry.lock @@ fun () ->
    let names = List.rev registry.rev_names in
    {
      counters =
        List.filter_map
          (function
            | name, `Counter ->
                Some (name, Atomic.get (Hashtbl.find registry.counters name).n)
            | _, `Histogram -> None)
          names;
      histograms =
        List.filter_map
          (function
            | name, `Histogram -> Some (name, stats (Hashtbl.find registry.histograms name))
            | _, `Counter -> None)
          names;
    }

  let reset ?(registry = global) () =
    Mutex.protect registry.lock @@ fun () ->
    Hashtbl.iter (fun _ c -> Atomic.set c.n 0) registry.counters;
    Hashtbl.iter
      (fun _ h ->
        Mutex.protect h.hlock @@ fun () ->
        h.obs <- 0;
        h.sum <- 0.;
        h.mn <- Float.infinity;
        h.mx <- Float.neg_infinity;
        Quantile.clear h.sketch)
      registry.histograms

  (* Renderers sort by metric name: snapshots keep registration order (the
     catalogue), but rendered output must diff stably across runs whose
     modules loaded in a different order. *)
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

  let to_text snap =
    let buf = Buffer.create 256 in
    List.iter
      (fun (name, n) -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name n))
      (by_name snap.counters);
    List.iter
      (fun (name, s) ->
        if s.observations = 0 then
          Buffer.add_string buf (Printf.sprintf "%-40s (no observations)\n" name)
        else
          Buffer.add_string buf
            (Printf.sprintf
               "%-40s n=%d sum=%g min=%g mean=%g p50=%g p90=%g p99=%g max=%g\n" name
               s.observations s.sum s.min (mean s) s.p50 s.p90 s.p99 s.max))
      (by_name snap.histograms);
    Buffer.contents buf

  let json_of_hstats s =
    if s.observations = 0 then Json.Obj [ ("n", Json.Int 0) ]
    else
      Json.Obj
        [
          ("n", Json.Int s.observations);
          ("sum", Json.Float s.sum);
          ("min", Json.Float s.min);
          ("mean", Json.Float (mean s));
          ("p50", Json.Float s.p50);
          ("p90", Json.Float s.p90);
          ("p99", Json.Float s.p99);
          ("max", Json.Float s.max);
        ]

  let to_json snap =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) (by_name snap.counters)) );
        ( "histograms",
          Json.Obj
            (List.map (fun (k, s) -> (k, json_of_hstats s)) (by_name snap.histograms))
        );
      ]
end

module Frame = struct
  (* The one domain-local frame stack. Every open span and every in-flight
     op is a frame on its domain's stack. Event ids are read off it, so it
     sits below both Event and Trace.

     Every domain owns its own stack. A single shared stack corrupts the
     tree as soon as a span opens inside a spawned domain (frames from
     different domains interleave); with domain-local stacks, spans opened
     off the installing domain nest among themselves and are delivered to
     the sink as separate *root* spans when their outermost span completes.
     They are never attached under another domain's currently-open span —
     cross-domain attachment would race with the parent closing. *)
  type span = { name : string; start : float; stop : float; children : span list }

  (* What an op frame carries beyond the span: its in-flight record. *)
  type op = {
    detail : string;
    mutable rev_notes : (string * Json.t) list;
    mutable outcome : string option;
  }

  type t = {
    fname : string;
    fstart : float;
    fid : int; (* 0: not a span (an op opened while no sink was installed) *)
    mutable rev_children : span list;
    op : op option;
  }

  let stack : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

  (* (trace id, span id) of this domain's innermost open frame: the trace id
     is the root frame's id, the span id the innermost frame's. (0, 0) when
     no span is open on this domain: ids are only minted while a sink is
     installed. *)
  let ids () =
    match !(Domain.DLS.get stack) with
    | [] -> (0, 0)
    | top :: _ as stack ->
        let rec root = function
          | [ f ] -> f
          | _ :: tl -> root tl
          | [] -> top
        in
        ((root stack).fid, top.fid)
end

module Event = struct
  (* Timestamped, named events with JSON fields, kept in a lock-free
     bounded ring (last [capacity] survive) and optionally streamed to a
     JSONL sink. Emission is OFF by default — [emit] with no ring enabled
     is one atomic load and a branch, so instrumented hot paths cost
     ~nothing until someone is recording. *)
  type t = {
    ts : float;
    name : string;
    trace_id : int;
    span_id : int;
    fields : (string * Json.t) list;
  }

  let c_emitted = Metrics.counter "obs.events_emitted"
  let c_dropped = Metrics.counter "obs.events_dropped"

  type ring = {
    slots : t option Atomic.t array;
    seq : int Atomic.t; (* events ever emitted into this ring *)
    sink : (t -> unit) option;
  }

  let state : ring option Atomic.t = Atomic.make None
  let sink_lock = Mutex.create ()

  let enabled () = Atomic.get state <> None

  let enable ?(capacity = 4096) ?sink () =
    if capacity <= 0 then invalid_arg "Obs.Event.enable: capacity must be positive";
    Atomic.set state
      (Some
         {
           slots = Array.init capacity (fun _ -> Atomic.make None);
           seq = Atomic.make 0;
           sink;
         })

  let disable () = Atomic.set state None

  (* Lock-free: a slot index is claimed with one fetch-and-add on [seq],
     then the slot pointer is swapped to the new (immutable) record — a
     concurrent reader sees either the old record or the new one, never a
     torn mix. An emission beyond capacity overwrites the oldest slot, so
     drops are exactly max(0, emitted - capacity) and [c_dropped] counts
     them one-for-one. *)
  let emit ?(fields = []) name =
    match Atomic.get state with
    | None -> ()
    | Some r ->
        let trace_id, span_id = Frame.ids () in
        let ev = { ts = Clock.now (); name; trace_id; span_id; fields } in
        let i = Atomic.fetch_and_add r.seq 1 in
        let cap = Array.length r.slots in
        Atomic.set r.slots.(i mod cap) (Some ev);
        Metrics.incr c_emitted;
        if i >= cap then Metrics.incr c_dropped;
        (match r.sink with
        | None -> ()
        | Some f -> Mutex.protect sink_lock (fun () -> f ev))

  let emitted () =
    match Atomic.get state with None -> 0 | Some r -> Atomic.get r.seq

  (* Oldest-first surviving contents. Quiescent reads (after emitters have
     joined) see exactly the last min(emitted, capacity) events; a read
     racing emitters may see a slot's previous occupant instead — each slot
     is still a whole record. *)
  let recent () =
    match Atomic.get state with
    | None -> []
    | Some r ->
        let cap = Array.length r.slots in
        let n = Atomic.get r.seq in
        let lo = if n > cap then n - cap else 0 in
        List.filter_map
          (fun k -> Atomic.get r.slots.((lo + k) mod cap))
          (List.init (n - lo) Fun.id)

  let to_json ev =
    Json.Obj
      [
        ("ts", Json.Float ev.ts);
        ("name", Json.String ev.name);
        ("trace", Json.Int ev.trace_id);
        ("span", Json.Int ev.span_id);
        ("fields", Json.Obj ev.fields);
      ]

  let of_json j =
    match j with
    | Json.Obj _ -> (
        let num = function
          | Some (Json.Float f) -> Some f
          | Some (Json.Int i) -> Some (float_of_int i)
          | _ -> None
        in
        let int = function Some (Json.Int i) -> i | _ -> 0 in
        match (num (Json.member "ts" j), Json.member "name" j) with
        | Some ts, Some (Json.String name) ->
            Ok
              {
                ts;
                name;
                trace_id = int (Json.member "trace" j);
                span_id = int (Json.member "span" j);
                fields =
                  (match Json.member "fields" j with
                  | Some (Json.Obj kvs) -> kvs
                  | _ -> []);
              }
        | None, _ -> Error "event is missing a numeric \"ts\""
        | _, _ -> Error "event is missing a string \"name\"")
    | _ -> Error "event is not a JSON object"

  let jsonl_sink oc ev =
    output_string oc (Json.to_string (to_json ev));
    output_char oc '\n'

  let field name ev = List.assoc_opt name ev.fields
end

module Trace = struct
  type span = Frame.span = {
    name : string;
    start : float;
    stop : float;
    children : span list;
  }

  let duration s = s.stop -. s.start

  type sink = span -> unit

  (* Frame ids are minted process-wide so (root id, open-frame id) works as
     a (trace id, span id) pair for correlating events with spans; 0 is
     reserved for "no tracing active". *)
  let next_id = Atomic.make 1

  let installed : sink option ref = ref None

  (* Root spans reach the sink under this lock, so any sink (the collector
     included) may be driven from parallel code. *)
  let sink_lock = Mutex.create ()

  let enabled () = !installed <> None

  let install ?now sink =
    Option.iter Clock.set now;
    installed := Some sink;
    Domain.DLS.get Frame.stack := []

  let uninstall () =
    installed := None;
    Domain.DLS.get Frame.stack := []

  let push name op =
    let stack = Domain.DLS.get Frame.stack in
    let fid = if enabled () then Atomic.fetch_and_add next_id 1 else 0 in
    let frame =
      { Frame.fname = name; fstart = Clock.now (); fid; rev_children = []; op }
    in
    stack := frame :: !stack;
    (stack, frame)

  (* Pop up to [frame] and, if it is a span, hand it to its parent or the
     sink. Tolerates install/uninstall mid-span: a frame no longer on the
     stack is dropped silently. *)
  let pop stack (frame : Frame.t) stop =
    let rec drop = function
      | f :: rest when f == frame -> Some rest
      | _ :: rest -> drop rest
      | [] -> None
    in
    match drop !stack with
    | None -> ()
    | Some rest ->
        stack := rest;
        if frame.fid <> 0 then
          let span =
            {
              name = frame.fname;
              start = frame.fstart;
              stop;
              children = List.rev frame.rev_children;
            }
          in
          match (rest, !installed) with
          | parent :: _, _ -> parent.rev_children <- span :: parent.rev_children
          | [], Some sink -> Mutex.protect sink_lock (fun () -> sink span)
          | [], None -> ()

  let with_span name f =
    match !installed with
    | None -> f () (* the whole cost of disabled tracing: one load + branch *)
    | Some _ ->
        let stack, frame = push name None in
        Fun.protect ~finally:(fun () -> pop stack frame (Clock.now ())) f

  let ids = Frame.ids

  (* ---- ops ---- *)

  let slow_s = 1.0

  let c_ops = Metrics.counter "obs.ops_recorded"
  let c_slow = Metrics.counter "obs.slow_ops"

  (* Latency histograms are per subsystem (the op name up to the first
     dot): pquery.rank -> pquery.latency, store.save -> store.latency.
     The three core ones are registered eagerly so every snapshot carries
     them even before the first operation. *)
  let latency_hist name =
    let prefix =
      match String.index_opt name '.' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    Metrics.histogram (prefix ^ ".latency")

  let _ = Metrics.histogram "pquery.latency"
  let _ = Metrics.histogram "integrate.latency"
  let _ = Metrics.histogram "store.latency"

  (* The op event is emitted before the frame pops, so it carries the op's
     own (trace id, span id). *)
  let op ?(detail = "") name f =
    let record = { Frame.detail; rev_notes = []; outcome = None } in
    let stack, frame = push name (Some record) in
    let finish default_outcome =
      let stop = Clock.now () in
      let duration = stop -. frame.fstart in
      let outcome = Option.value ~default:default_outcome record.outcome in
      Metrics.observe (latency_hist name) (duration *. 1000.);
      Metrics.incr c_ops;
      let slow = duration >= slow_s in
      if slow then Metrics.incr c_slow;
      if Event.enabled () then begin
        let base =
          ("dur_ms", Json.Float (duration *. 1000.))
          :: ("outcome", Json.String outcome)
          :: (if detail = "" then [] else [ ("detail", Json.String detail) ])
        in
        Event.emit ~fields:(base @ List.rev record.rev_notes) name;
        if slow then
          Event.emit
            ~fields:
              [
                ("op", Json.String name);
                ("dur_ms", Json.Float (duration *. 1000.));
                ("outcome", Json.String outcome);
              ]
            "slow_op"
      end;
      pop stack frame stop
    in
    match f () with
    | v ->
        finish "ok";
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ("error:" ^ Printexc.to_string e);
        Printexc.raise_with_backtrace e bt

  let current_op () =
    List.find_map (fun (f : Frame.t) -> f.op) !(Domain.DLS.get Frame.stack)

  let note key v =
    match current_op () with
    | Some r -> r.rev_notes <- (key, v) :: r.rev_notes
    | None -> ()

  let outcome s =
    match current_op () with Some r -> r.outcome <- Some s | None -> ()

  let collector () =
    (* roots only ever arrive under [sink_lock]; the read side takes the
       same lock so a collect during parallel spans is well-defined *)
    let rev_roots = ref [] in
    let sink span = rev_roots := span :: !rev_roots in
    (sink, fun () -> Mutex.protect sink_lock (fun () -> List.rev !rev_roots))

  let human_duration s =
    if s >= 1. then Printf.sprintf "%.2f s" s
    else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
    else if s >= 1e-6 then Printf.sprintf "%.2f us" (s *. 1e6)
    else Printf.sprintf "%.0f ns" (s *. 1e9)

  let to_text ?max_depth root =
    let buf = Buffer.create 256 in
    let rec go depth span =
      match max_depth with
      | Some d when depth > d -> ()
      | _ ->
          Buffer.add_string buf
            (Printf.sprintf "%s%-*s %10s\n"
               (String.make (2 * depth) ' ')
               (max 1 (40 - (2 * depth)))
               span.name
               (human_duration (duration span)));
          List.iter (go (depth + 1)) span.children
    in
    go 0 root;
    Buffer.contents buf

  let rec to_json span =
    Json.Obj
      [
        ("name", Json.String span.name);
        ("start_s", Json.Float span.start);
        ("dur_s", Json.Float (duration span));
        ("children", Json.List (List.map to_json span.children));
      ]

  (* Chrome trace-event JSON ("complete" events, ph "X") loadable by
     chrome://tracing and Perfetto. Timestamps are microseconds relative to
     the earliest root so the viewer opens at t=0; each root span (one per
     collected tree, i.e. per domain that closed an outermost span) gets its
     own tid row, and the viewer reconstructs nesting from ts/dur. *)
  let to_chrome roots =
    let t0 =
      List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity roots
    in
    let t0 = if t0 = Float.infinity then 0. else t0 in
    let rec events tid acc span =
      let ev =
        Json.Obj
          [
            ("name", Json.String span.name);
            ("cat", Json.String "imprecise");
            ("ph", Json.String "X");
            ("ts", Json.Float ((span.start -. t0) *. 1e6));
            ("dur", Json.Float (duration span *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
          ]
      in
      List.fold_left (events tid) (ev :: acc) span.children
    in
    let _, rev_events =
      List.fold_left
        (fun (tid, acc) root -> (tid + 1, events tid acc root))
        (1, []) roots
    in
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev rev_events));
        ("displayTimeUnit", Json.String "ms");
      ]
end
