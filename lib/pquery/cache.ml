module Obs = Imprecise_obs.Obs

let c_hit = Obs.Metrics.counter "pquery.cache.hit"

let c_miss = Obs.Metrics.counter "pquery.cache.miss"

let c_evict = Obs.Metrics.counter "pquery.cache.evict"

(* Classic LRU: hash table into an intrusive doubly-linked recency list,
   most-recent at the head. All operations O(1). *)

type node = {
  key : string;
  mutable value : Answer.t list;
  mutable prev : node option;  (** towards the head (more recent) *)
  mutable next : node option;  (** towards the tail (least recent) *)
}

type t = {
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  capacity : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  { tbl = Hashtbl.create 64; head = None; tail = None; capacity }

let capacity t = t.capacity

let length t = Hashtbl.length t.tbl

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      Obs.Metrics.incr c_evict

let find t key =
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some n ->
        Obs.Metrics.incr c_hit;
        touch t n;
        Some n.value
    | None ->
        Obs.Metrics.incr c_miss;
        None
  in
  (* gated: no fields are built unless someone is recording events *)
  if Obs.Event.enabled () then
    Obs.Event.emit
      ~fields:[ ("hit", Obs.Json.Bool (r <> None)); ("key", Obs.Json.String key) ]
      "pquery.cache";
  r

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      n.value <- value;
      touch t n
  | None ->
      if length t >= t.capacity then evict_tail t;
      let n = { key; value; prev = None; next = None } in
      Hashtbl.add t.tbl key n;
      push_front t n

(* Composite key. The generation is what invalidates: every [Store.put]
   stamps the document with a fresh generation, so entries for superseded
   document states can never be hit again and age out of the LRU. Each
   string field is length-prefixed so the encoding is injective: a plain
   separator-joined key ("c#g1#v#q") collides when a collection or query
   itself contains the separator — e.g. ("c", 1, "v", "x#g1#v#x") and
   ("c#g1#v#x", 1, "v", "x") used to produce the same key. The field
   order still puts the query last so keys stay readable in debuggers. *)
let key ~collection ~generation ~variant ~query =
  Printf.sprintf "%d:%s#g%d#%d:%s#%d:%s" (String.length collection) collection
    generation (String.length variant) variant (String.length query) query

let global = create ~capacity:256 ()
