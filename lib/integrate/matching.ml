module Oracle = Imprecise_oracle.Oracle
module Budget = Imprecise_resilience.Budget

type edge = { left : int; right : int; prob : float }

type graph = { n_left : int; n_right : int; edges : edge list }

type cluster = { lefts : int list; rights : int list; cluster_edges : edge list }

exception Too_many of int

exception Infeasible of string

let forced_threshold = 1. -. 1e-9

module IS = Set.Make (Int)

let clusters g =
  (* Union-find over vertices encoded as [left i = 2i], [right j = 2j+1]. *)
  let size = (2 * max g.n_left g.n_right) + 2 in
  let parent = Array.init size (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin parent.(i) <- find parent.(i); parent.(i) end in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter (fun e -> union (2 * e.left) ((2 * e.right) + 1)) g.edges;
  let by_root = Hashtbl.create 8 in
  let touch v =
    let r = find v in
    if not (Hashtbl.mem by_root r) then
      Hashtbl.add by_root r { lefts = []; rights = []; cluster_edges = [] }
  in
  List.iter
    (fun e ->
      touch (2 * e.left);
      touch ((2 * e.right) + 1))
    g.edges;
  let lefts_seen = ref IS.empty and rights_seen = ref IS.empty in
  List.iter
    (fun e ->
      lefts_seen := IS.add e.left !lefts_seen;
      rights_seen := IS.add e.right !rights_seen)
    g.edges;
  IS.iter
    (fun i ->
      let r = find (2 * i) in
      let c = Hashtbl.find by_root r in
      Hashtbl.replace by_root r { c with lefts = i :: c.lefts })
    !lefts_seen;
  IS.iter
    (fun j ->
      let r = find ((2 * j) + 1) in
      let c = Hashtbl.find by_root r in
      Hashtbl.replace by_root r { c with rights = j :: c.rights })
    !rights_seen;
  List.iter
    (fun e ->
      let r = find (2 * e.left) in
      let c = Hashtbl.find by_root r in
      Hashtbl.replace by_root r { c with cluster_edges = e :: c.cluster_edges })
    g.edges;
  Hashtbl.fold (fun _ c acc -> c :: acc) by_root []
  |> List.map (fun c ->
         {
           lefts = List.sort Int.compare c.lefts;
           rights = List.sort Int.compare c.rights;
           cluster_edges = List.rev c.cluster_edges;
         })
  |> List.sort (fun a b ->
         match a.lefts, b.lefts with
         | x :: _, y :: _ -> Int.compare x y
         | [], _ -> 1
         | _, [] -> -1)

let isolated g =
  let lefts_seen =
    List.fold_left (fun s e -> IS.add e.left s) IS.empty g.edges
  and rights_seen =
    List.fold_left (fun s e -> IS.add e.right s) IS.empty g.edges
  in
  let range n seen =
    List.filter (fun i -> not (IS.mem i seen)) (List.init n (fun i -> i))
  in
  (range g.n_left lefts_seen, range g.n_right rights_seen)

(* Enumerate matchings of one cluster by deciding the lefts in order: each
   left stays unmatched or takes one free right neighbour. Forced edges
   (probability ≥ forced_threshold) prune the search: a left with a forced
   edge must take it, and a right wanted by a forced edge is unavailable to
   other lefts. *)
let enumerate ?(limit = max_int) cluster k =
  let forced_of_left = Hashtbl.create 4 and forced_of_right = Hashtbl.create 4 in
  List.iter
    (fun e ->
      if e.prob >= forced_threshold then begin
        if Hashtbl.mem forced_of_left e.left then
          raise (Infeasible "two forced matches for one element");
        if Hashtbl.mem forced_of_right e.right then
          raise (Infeasible "two forced matches for one element");
        Hashtbl.add forced_of_left e.left e.right;
        Hashtbl.add forced_of_right e.right e.left
      end)
    cluster.cluster_edges;
  let neighbours =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl e.left) in
        Hashtbl.replace tbl e.left (prev @ [ e ]))
      cluster.cluster_edges;
    tbl
  in
  let count = ref 0 in
  let weight pairs =
    List.fold_left
      (fun w e ->
        if List.exists (fun (l, r) -> l = e.left && r = e.right) pairs then w *. e.prob
        else w *. (1. -. e.prob))
      1. cluster.cluster_edges
  in
  let rec go lefts used pairs =
    match lefts with
    | [] ->
        let w = weight (List.rev pairs) in
        if w > 0. then begin
          incr count;
          if !count > limit then raise (Too_many !count);
          k (w, List.rev pairs)
        end
    | l :: rest ->
        let forced = Hashtbl.find_opt forced_of_left l in
        (match forced with
        | Some _ -> () (* a forced left may not stay unmatched *)
        | None -> go rest used pairs);
        List.iter
          (fun e ->
            let right_reserved =
              match Hashtbl.find_opt forced_of_right e.right with
              | Some fl -> fl <> l
              | None -> false
            in
            let allowed =
              (match forced with Some fr -> fr = e.right | None -> true)
              && (not right_reserved)
              && not (IS.mem e.right used)
            in
            if allowed then go rest (IS.add e.right used) ((l, e.right) :: pairs))
          (Option.value ~default:[] (Hashtbl.find_opt neighbours l))
  in
  go cluster.lefts IS.empty [];
  !count

let matchings ?limit cluster =
  let acc = ref [] in
  let n = enumerate ?limit cluster (fun m -> acc := m :: !acc) in
  if n = 0 then raise (Infeasible "no matching has positive probability");
  let results = List.rev !acc in
  let total = List.fold_left (fun s (w, _) -> s +. w) 0. results in
  if total <= 0. then raise (Infeasible "zero total matching probability");
  List.map (fun (w, pairs) -> (w /. total, pairs)) results

let count_matchings cluster = enumerate cluster (fun _ -> ())

let clamp_prob p = Float.max 1e-9 (Float.min (1. -. 1e-9) p)

type tally = {
  generated : int;
  pairs : int;
  same : int;
  unsure : int;
}

let empty_tally = { generated = 0; pairs = 0; same = 0; unsure = 0 }

let add_tally a b =
  {
    generated = a.generated + b.generated;
    pairs = a.pairs + b.pairs;
    same = a.same + b.same;
    unsure = a.unsure + b.unsure;
  }

(* One contiguous band of rows, evaluated sequentially in row-major order.
   Returns the band's edges (in that order) and its private tally — no
   shared mutable state, so bands can run on separate domains. With
   [candidates], only the listed cells of each row are evaluated; the rest
   are skipped without being visited (that skip, not a cheaper per-cell
   check, is what makes 100k-row grids tractable). Candidate rows must be
   ascending so the edge order stays row-major. *)
let eval_band ?budget ?candidates ~lo ~hi ~n_right verdict =
  let edges = ref [] in
  let pairs = ref 0 and same = ref 0 and unsure = ref 0 in
  let eval i j =
    Option.iter Budget.tick budget;
    incr pairs;
    match verdict i j with
    | Oracle.Same ->
        incr same;
        edges := { left = i; right = j; prob = 1. } :: !edges
    | Oracle.Different -> ()
    | Oracle.Unsure p ->
        incr unsure;
        if p > 0. then edges := { left = i; right = j; prob = clamp_prob p } :: !edges
  in
  for i = lo to hi - 1 do
    match candidates with
    | None -> for j = 0 to n_right - 1 do eval i j done
    | Some row -> List.iter (fun j -> eval i j) (row i)
  done;
  ( List.rev !edges,
    { generated = (hi - lo) * n_right; pairs = !pairs; same = !same; unsure = !unsure } )

(* Grids smaller than this run sequentially whatever [jobs] says: spawning
   a domain costs more than deciding this few pairs. Equality of the two
   plans is unconditional (see below), so the gate is pure performance. *)
let par_grid_min = 64

let graph ?budget ?candidates ?(jobs = 1) ~n_left ~n_right verdict =
  let jobs = max 1 (min jobs n_left) in
  let jobs = if n_left * n_right < par_grid_min then 1 else jobs in
  if jobs <= 1 then begin
    let edges, tally = eval_band ?budget ?candidates ~lo:0 ~hi:n_left ~n_right verdict in
    ({ n_left; n_right; edges }, tally)
  end
  else begin
    (* Contiguous row bands, one per domain. Concatenating the per-band
       buffers in band order reproduces the sequential row-major edge
       order exactly, and each edge's probability is computed from its
       pair alone — so any [jobs] is bit-identical to [jobs = 1].

       Every band runs inside [guarded], which captures success or failure
       instead of letting an exception escape mid-join (which would leak
       unjoined domains, and could report a later band's failure while an
       earlier band's went unseen). On failure the shared budget is
       cancelled so sibling bands stop at their next tick; after all
       domains are joined, the first failure in band order is re-raised. *)
    let base = n_left / jobs and extra = n_left mod jobs in
    let band d =
      let lo = (d * base) + min d extra in
      (lo, lo + base + if d < extra then 1 else 0)
    in
    let guarded d () =
      let lo, hi = band d in
      match eval_band ?budget ?candidates ~lo ~hi ~n_right verdict with
      | result -> Ok result
      | exception e ->
          Option.iter Budget.cancel budget;
          Error e
    in
    let workers = List.init (jobs - 1) (fun k -> Domain.spawn (guarded (k + 1))) in
    let outcomes = guarded 0 () :: List.map Domain.join workers in
    let parts = List.map (function Ok r -> r | Error e -> raise e) outcomes in
    let edges = List.concat_map fst parts in
    let tally = List.fold_left (fun acc (_, t) -> add_tally acc t) empty_tally parts in
    ({ n_left; n_right; edges }, tally)
  end
