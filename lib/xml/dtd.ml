type occurs = Optional | One | Many | Any

module Key = struct
  type t = Tree.name * Tree.name

  let compare = Stdlib.compare
end

module M = Map.Make (Key)

type t = occurs M.t

let empty = M.empty

let declare t ~parent ~child occurs = M.add (parent, child) occurs t

let occurs t ~parent ~child =
  match M.find_opt (parent, child) t with Some o -> o | None -> Any

let max_one t ~parent ~child =
  match occurs t ~parent ~child with
  | Optional | One -> true
  | Many | Any -> false

type violation = {
  parent : Tree.name;
  child : Tree.name;
  expected : occurs;
  found : int;
}

let occurs_to_string = function
  | Optional -> "?"
  | One -> "1"
  | Many -> "+"
  | Any -> "*"

let pp_violation ppf v =
  Fmt.pf ppf "under <%s>: <%s> occurs %d times, cardinality is %s" v.parent
    v.child v.found (occurs_to_string v.expected)

let admissible expected found =
  match expected with
  | Optional -> found <= 1
  | One -> found = 1
  | Many -> found >= 1
  | Any -> true

let count_children parent name =
  List.length (Tree.find_children parent name)

let validate t tree =
  let violations = ref [] in
  let check node =
    match node with
    | Tree.Text _ -> ()
    | Tree.Element (parent, _, _) ->
        M.iter
          (fun (p, child) expected ->
            if p = parent then begin
              let found = count_children node child in
              if not (admissible expected found) then
                violations := { parent; child; expected; found } :: !violations
            end)
          t
  in
  Tree.iter check tree;
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let infer docs =
  let max_counts = Hashtbl.create 32 in
  let visit node =
    match node with
    | Tree.Text _ -> ()
    | Tree.Element (parent, _, children) ->
        let counts = Hashtbl.create 8 in
        List.iter
          (fun c ->
            match Tree.name c with
            | None -> ()
            | Some child ->
                Hashtbl.replace counts child
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts child)))
          children;
        Hashtbl.iter
          (fun child n ->
            let key = (parent, child) in
            let prev = Option.value ~default:0 (Hashtbl.find_opt max_counts key) in
            Hashtbl.replace max_counts key (max prev n))
          counts
  in
  List.iter (fun doc -> Tree.iter visit doc) docs;
  Hashtbl.fold
    (fun (parent, child) n t ->
      declare t ~parent ~child (if n <= 1 then Optional else Any))
    max_counts empty

let parse_item parent t item =
  let item = Tree.normalize_space item in
  if item = "" then Ok t
  else
    let n = String.length item in
    let name, occ =
      match item.[n - 1] with
      | '?' -> (String.sub item 0 (n - 1), Optional)
      | '*' -> (String.sub item 0 (n - 1), Any)
      | '+' -> (String.sub item 0 (n - 1), Many)
      | _ -> (item, One)
    in
    let name = Tree.normalize_space name in
    if name = "" then Error (Fmt.str "empty child name in declaration for %s" parent)
    else if not (Parser.is_name name) then
      Error (Fmt.str "child %S of %s is not an XML name" name parent)
    else Ok (declare t ~parent ~child:name occ)

let parse_line t line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = Tree.normalize_space line in
  if line = "" then Ok t
  else
    match String.index_opt line ':' with
    | None -> Error (Fmt.str "missing ':' in DTD line %S" line)
    | Some i ->
        let parent = Tree.normalize_space (String.sub line 0 i) in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        if parent = "" then Error (Fmt.str "missing parent name in %S" line)
        else if not (Parser.is_name parent) then
          Error (Fmt.str "parent %S is not an XML name in %S" parent line)
        else
          List.fold_left
            (fun acc item ->
              match acc with Error _ as e -> e | Ok t -> parse_item parent t item)
            (Ok t)
            (String.split_on_char ',' rest)

let of_string s =
  List.fold_left
    (fun acc line -> match acc with Error _ as e -> e | Ok t -> parse_line t line)
    (Ok empty)
    (String.split_on_char '\n' s)

let declarations t =
  M.bindings t |> List.map (fun ((p, c), o) -> (p, c, o))

let to_string t =
  let by_parent = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (p, c, o) ->
      if not (Hashtbl.mem by_parent p) then begin
        Hashtbl.add by_parent p [];
        order := p :: !order
      end;
      Hashtbl.replace by_parent p ((c, o) :: Hashtbl.find by_parent p))
    (declarations t);
  !order |> List.rev
  |> List.map (fun p ->
         let items =
           Hashtbl.find by_parent p |> List.rev
           |> List.map (fun (c, o) ->
                  match o with
                  | One -> c
                  | Optional -> c ^ "?"
                  | Many -> c ^ "+"
                  | Any -> c ^ "*")
         in
         p ^ ": " ^ String.concat ", " items)
  |> String.concat "\n"
