(* Hash-consing of deep-equal subtrees. See intern.mli for the contract.

   One WEAK POOL per interned type, keyed by a full structural hash and
   holding the canonical representative of every distinct subtree
   currently alive. Weak, so the pool pins nothing: a subtree no longer
   referenced anywhere else is collected and its cell swept on the next
   resize. Interning is one bottom-up traversal: children first, so each
   pool probe compares children by pointer, and a node whose children
   came back unchanged is its own candidate (no copy on a pool hit of an
   already-canonical subtree).

   All state is process-global behind one mutex: interning is called from
   the parallel domains of the integration grid. *)

module Tree = Imprecise_xml.Tree
module Obs = Imprecise_obs.Obs

let c_hit = Obs.Metrics.counter "pxml.intern.hit"

let c_miss = Obs.Metrics.counter "pxml.intern.miss"

let lock = Mutex.create ()

(* FNV-style mixing; results are masked positive at bucket time. *)
let comb h x = (h * 16777619) lxor x

let hash_string s = Hashtbl.hash s

(* ---- weak pool -------------------------------------------------------- *)

(* An open-hashing weak set with the hash cached per cell, so a resize
   never re-hashes a stored element. *)
module Wpool = struct
  type 'a cell = { h : int; w : 'a Weak.t }

  type 'a t = { mutable buckets : 'a cell list array; mutable count : int }

  let create n = { buckets = Array.make n []; count = 0 }

  let index h len = (h land max_int) mod len

  let resize p =
    let live =
      Array.fold_left
        (fun acc cells ->
          List.fold_left
            (fun acc c -> if Weak.check c.w 0 then c :: acc else acc)
            acc cells)
        [] p.buckets
    in
    let n = List.length live in
    let size = max (Array.length p.buckets) (4 * max 1 n) in
    let buckets = Array.make size [] in
    List.iter
      (fun c ->
        let i = index c.h size in
        buckets.(i) <- c :: buckets.(i))
      live;
    p.buckets <- buckets;
    p.count <- n

  (* [merge p ~hash ~equal x] is the canonical element equal to [x], adding
     [x] itself if the pool has none. [equal] is shallow: callers intern
     children first, so child comparisons are pointer checks. *)
  let merge p ~hash ~equal x =
    let b = index hash (Array.length p.buckets) in
    let rec find = function
      | [] -> None
      | c :: rest -> (
          if c.h <> hash then find rest
          else
            match Weak.get c.w 0 with
            | Some y when equal y x -> Some y
            | _ -> find rest)
    in
    match find p.buckets.(b) with
    | Some y ->
        Obs.Metrics.incr c_hit;
        y
    | None ->
        Obs.Metrics.incr c_miss;
        let w = Weak.create 1 in
        Weak.set w 0 (Some x);
        p.buckets.(b) <- { h = hash; w } :: p.buckets.(b);
        p.count <- p.count + 1;
        if p.count > 4 * Array.length p.buckets then resize p;
        x
end

(* ---- Tree.t ------------------------------------------------------------ *)

let tree_pool : Tree.t Wpool.t = Wpool.create 1024

let hash_attrs attrs =
  List.fold_left
    (fun h (k, v) -> comb (comb h (hash_string k)) (hash_string v))
    0x9e3779b9 attrs

let tree_shallow_equal a b =
  match (a, b) with
  | Tree.Text x, Tree.Text y -> String.equal x y
  | Tree.Element (n1, a1, c1), Tree.Element (n2, a2, c2) ->
      String.equal n1 n2 && a1 = a2 && List.equal ( == ) c1 c2
  | Tree.Text _, Tree.Element _ | Tree.Element _, Tree.Text _ -> false

let rec tree_ih t =
  match t with
  | Tree.Text s ->
      let h = comb 3 (hash_string s) in
      (Wpool.merge tree_pool ~hash:h ~equal:tree_shallow_equal t, h)
  | Tree.Element (name, attrs, children) ->
      let children', h =
        List.fold_left
          (fun (rev, h) c ->
            let c', hc = tree_ih c in
            (c' :: rev, comb h hc))
          ([], comb (comb 5 (hash_string name)) (hash_attrs attrs))
          children
      in
      let children' = List.rev children' in
      let candidate =
        if List.equal ( == ) children' children then t
        else Tree.Element (name, attrs, children')
      in
      (Wpool.merge tree_pool ~hash:h ~equal:tree_shallow_equal candidate, h)

let tree_hashed t = Mutex.protect lock @@ fun () -> tree_ih t

let tree t = fst (tree_hashed t)

(* ---- Pxml -------------------------------------------------------------- *)

let node_pool : Pxml.node Wpool.t = Wpool.create 1024

let dist_pool : Pxml.dist Wpool.t = Wpool.create 1024

let choice_pool : Pxml.choice Wpool.t = Wpool.create 1024

(* Probabilities intern by BITWISE equality (Int64.bits_of_float), never by
   epsilon: interning must be semantics-preserving to the last bit, or a
   round-trip through the pool would change query probabilities. *)
let hash_prob p = Int64.to_int (Int64.bits_of_float p)

let node_shallow_equal a b =
  match (a, b) with
  | Pxml.Text x, Pxml.Text y -> String.equal x y
  | Pxml.Elem (t1, a1, c1), Pxml.Elem (t2, a2, c2) ->
      String.equal t1 t2 && a1 = a2 && List.equal ( == ) c1 c2
  | Pxml.Text _, Pxml.Elem _ | Pxml.Elem _, Pxml.Text _ -> false

let choice_shallow_equal (a : Pxml.choice) (b : Pxml.choice) =
  Int64.bits_of_float a.prob = Int64.bits_of_float b.prob
  && List.equal ( == ) a.nodes b.nodes

let dist_shallow_equal (a : Pxml.dist) (b : Pxml.dist) =
  List.equal ( == ) a.choices b.choices

let rec node_ih (n : Pxml.node) =
  match n with
  | Pxml.Text s ->
      let h = comb 7 (hash_string s) in
      (Wpool.merge node_pool ~hash:h ~equal:node_shallow_equal n, h)
  | Pxml.Elem (tag, attrs, content) ->
      let content', h =
        List.fold_left
          (fun (rev, h) d ->
            let d', hd = dist_ih d in
            (d' :: rev, comb h hd))
          ([], comb (comb 11 (hash_string tag)) (hash_attrs attrs))
          content
      in
      let content' = List.rev content' in
      let candidate =
        if List.equal ( == ) content' content then n
        else Pxml.Elem (tag, attrs, content')
      in
      (Wpool.merge node_pool ~hash:h ~equal:node_shallow_equal candidate, h)

and choice_ih (c : Pxml.choice) =
  let nodes, h =
    List.fold_left
      (fun (rev, h) n ->
        let n', hn = node_ih n in
        (n' :: rev, comb h hn))
      ([], comb 13 (hash_prob c.prob))
      c.nodes
  in
  let nodes = List.rev nodes in
  let candidate = if List.equal ( == ) nodes c.nodes then c else { c with nodes } in
  (Wpool.merge choice_pool ~hash:h ~equal:choice_shallow_equal candidate, h)

and dist_ih (d : Pxml.dist) =
  let choices, h =
    List.fold_left
      (fun (rev, h) c ->
        let c', hc = choice_ih c in
        (c' :: rev, comb h hc))
      ([], 17) d.choices
  in
  let choices = List.rev choices in
  let candidate = if List.equal ( == ) choices d.choices then d else { Pxml.choices } in
  (Wpool.merge dist_pool ~hash:h ~equal:dist_shallow_equal candidate, h)

let doc (d : Pxml.doc) = Mutex.protect lock @@ fun () -> fst (dist_ih d)

(* ---- accounting -------------------------------------------------------- *)

(* [distinct_nodes d] counts PHYSICALLY distinct representation nodes in a
   document — on an interned document this is the deduplicated size, the
   number a shared (binary) encoding will actually write. *)
let distinct_nodes (d : Pxml.doc) =
  let module NT = Hashtbl.Make (struct
    type t = Pxml.node

    let equal = ( == )

    let hash = Hashtbl.hash
  end) in
  let module DT = Hashtbl.Make (struct
    type t = Pxml.dist

    let equal = ( == )

    let hash = Hashtbl.hash
  end) in
  let nt = NT.create 256 and dt = DT.create 256 in
  let count = ref 0 in
  let rec go_node n =
    if not (NT.mem nt n) then begin
      NT.add nt n ();
      incr count;
      match n with
      | Pxml.Text _ -> ()
      | Pxml.Elem (_, _, content) -> List.iter go_dist content
    end
  and go_dist d =
    if not (DT.mem dt d) then begin
      DT.add dt d ();
      incr count;
      List.iter (fun (c : Pxml.choice) -> List.iter go_node c.nodes) d.choices
    end
  in
  go_dist d;
  !count
