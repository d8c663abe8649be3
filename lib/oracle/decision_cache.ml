module Xml = Imprecise_xml
module Obs = Imprecise_obs.Obs

let c_hit = Obs.Metrics.counter "oracle.cache.hit"

let c_miss = Obs.Metrics.counter "oracle.cache.miss"

let c_evict = Obs.Metrics.counter "oracle.cache.evict"

(* Same LRU shape as Pquery.Cache (hash table into an intrusive recency
   list, every operation O(1)), but keyed by the subtree pair itself and
   guarded by a mutex: the integration engine consults one cache from all
   the domains deciding the verdict grid.

   A key is a subtree with its full structural hash, built once by [key]
   (one traversal). Keys are equal when their hashes agree and the trees
   are equal as written ([Tree.compare_raw], no canonical form), so a
   probe with the very keys that were stored is a hash check and a
   pointer check, and a probe with a fresh deep-equal copy traverses it
   once more. *)

type key = { tree : Xml.Tree.t; hash : int }

let mix h x = (h * 16777619) lxor x

(* Every node, attribute and string is hashed ([Hashtbl.hash] reads a
   whole string), unlike [Hashtbl.hash] on a tree, which stops after a
   few nodes. *)
let rec hash_tree = function
  | Xml.Tree.Text s -> mix 3 (Hashtbl.hash s)
  | Xml.Tree.Element (name, attrs, children) ->
      List.fold_left
        (fun h c -> mix h (hash_tree c))
        (List.fold_left
           (fun h (k, v) -> mix (mix h (Hashtbl.hash k)) (Hashtbl.hash v))
           (mix 5 (Hashtbl.hash name)) attrs)
        children

let key tree = { tree; hash = hash_tree tree }

let key_hash k = k.hash

let equal_key a b = a.hash = b.hash && Xml.Tree.compare_raw a.tree b.tree = 0

type pair = key * key

module Ktbl = Hashtbl.Make (struct
  type t = pair

  let equal (a1, b1) (a2, b2) = equal_key a1 a2 && equal_key b1 b2

  let hash (a, b) = (a.hash * 31) lxor b.hash
end)

type node = {
  key : pair;
  mutable value : Oracle.verdict;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  lock : Mutex.t;
  tbl : node Ktbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable capacity : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Decision_cache.create: capacity must be positive";
  { lock = Mutex.create (); tbl = Ktbl.create 64; head = None; tail = None; capacity }

let capacity t = t.capacity

let length t = Mutex.protect t.lock @@ fun () -> Ktbl.length t.tbl

let clear t =
  Mutex.protect t.lock @@ fun () ->
  Ktbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

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
      Ktbl.remove t.tbl n.key;
      Obs.Metrics.incr c_evict

let find t a b =
  let r =
    Mutex.protect t.lock @@ fun () ->
    match Ktbl.find_opt t.tbl (a, b) with
    | Some n ->
        Obs.Metrics.incr c_hit;
        touch t n;
        Some n.value
    | None ->
        Obs.Metrics.incr c_miss;
        None
  in
  (* gated and outside the cache lock: the event sink has its own mutex *)
  if Obs.Event.enabled () then
    Obs.Event.emit ~fields:[ ("hit", Obs.Json.Bool (r <> None)) ] "oracle.cache";
  r

let add t a b value =
  Mutex.protect t.lock @@ fun () ->
  let key = (a, b) in
  match Ktbl.find_opt t.tbl key with
  | Some n ->
      n.value <- value;
      touch t n
  | None ->
      if Ktbl.length t.tbl >= t.capacity then evict_tail t;
      let n = { key; value; prev = None; next = None } in
      Ktbl.add t.tbl key n;
      push_front t n

(* The lock is NOT held across [Oracle.decide]: a slow rule set would
   serialise every domain. Two domains may therefore decide the same
   fresh pair concurrently; both compute the same verdict (rules are
   pure by the {!Oracle} contract) and the second [add] is an idempotent
   overwrite, so the race costs duplicated work, never wrong answers.
   Conflicts are re-raised and never cached. *)
let decide t oracle a b =
  match find t a b with
  | Some v -> v
  | None ->
      let v = Oracle.decide oracle a.tree b.tree in
      add t a b v;
      v
