(* The compact binary codec. See bincodec.mli for the format specification
   (doc/store.md carries the same spec for operators). *)

module Tree = Imprecise_xml.Tree

let magic = "IPXB"

let version = 1

type payload = Certain of Tree.t | Probabilistic of Pxml.doc

(* ---- CRC-32 (IEEE/zlib polynomial; the manifest uses it too) ----------

   Table-driven on native ints: a 63-bit int holds the 32-bit state, so no
   byte of the input boxes anything. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let crc = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    crc := crc_table.((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* ---- primitive writers ------------------------------------------------- *)

let put_varint buf n =
  if n < 0 then invalid_arg "Bincodec: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_u32le buf (v : int32) =
  for i = 0 to 3 do
    Buffer.add_char buf
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * i)) 0xFFl)))
  done

(* Probabilities travel as their IEEE-754 bits, little-endian: the decode
   is bit-for-bit the encode, with no text formatting in between. *)
let put_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

(* ---- primitive readers ------------------------------------------------- *)

exception Bad of string

type reader = { s : string; mutable pos : int; limit : int }

let fail r msg = raise (Bad (Fmt.str "%s at offset %d" msg r.pos))

let byte r =
  if r.pos >= r.limit then fail r "truncated payload";
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let rec go shift acc =
    if shift > 62 then fail r "varint too wide";
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_u32le r =
  let b () = Int32.of_int (byte r) in
  let v0 = b () in
  let v1 = b () in
  let v2 = b () in
  let v3 = b () in
  Int32.logor v0
    (Int32.logor
       (Int32.shift_left v1 8)
       (Int32.logor (Int32.shift_left v2 16) (Int32.shift_left v3 24)))

let get_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

(* [get_count r] is a length or an element count. Every element and every
   byte takes at least one byte of payload, so a count beyond the bytes
   left is damage, caught here before [List.init] or [String.sub] sees
   it. *)
let get_count r =
  let n = get_varint r in
  if n < 0 || n > r.limit - r.pos then fail r "count exceeds the payload";
  n

let get_bytes r n =
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

(* ---- shared-value streams ----------------------------------------------

   Every sharable production (string, tree node, pxml node, probability
   node) is written as [varint k]: [k = 0] introduces a definition whose
   body follows and which is appended to that production's table once
   complete (post-order), [k > 0] is a back-reference to [table[k-1]].
   Deep-equal subtrees are written once and referenced ever after;
   decoding rebuilds the same sharing physically. *)

module Dtbl = struct
  type 'a t = { mutable items : 'a array; mutable n : int }

  let create () = { items = [||]; n = 0 }

  let append t v =
    if t.n >= Array.length t.items then begin
      let size = max 64 (2 * Array.length t.items) in
      let items = Array.make size v in
      Array.blit t.items 0 items 0 t.n;
      t.items <- items
    end;
    t.items.(t.n) <- v;
    t.n <- t.n + 1

  let get r t k = if k < 0 || k >= t.n then fail r "dangling back-reference" else t.items.(k)
end

(* ---- encoding ----------------------------------------------------------

   Each call hash-conses its document on its own. A pxml node is looked up
   in a structural table ({!Pxml.Table}) before it is written: a node met
   before, as the same object or an equal copy, is a back-reference, and a
   new one is written and then numbered, after its children. Strings are
   keyed by value. A probability node and a certain tree's node are keyed
   by their tag, attributes and the definition ids of their children
   (probabilities by their bits); because the key needs the children's
   ids, such a body is written first, and when its key turns out to be
   defined already the buffer is cut back to its start and a
   back-reference written instead. Nothing can have been defined inside
   such a duplicate: its earlier occurrence defined every child and every
   string value in it, so the body written was back-references only. One
   pass, no global state; the tables die with the call. *)

type key =
  | K_text of string
  | K_elem of string * (string * string) list * int list
  | K_dist of (float * int list) list

let mix_ids h ids = List.fold_left Pxml.mix h ids

let bits p = Int64.bits_of_float p

(* Every field is hashed, the id lists to their end; [Hashtbl.hash] on the
   final int spreads the FNV-style mix over all bits. *)
let hash_key k =
  Hashtbl.hash
    (match k with
    | K_text s -> Hashtbl.hash s
    | K_elem (tag, attrs, kids) ->
        mix_ids
          (List.fold_left
             (fun h (k, v) -> Pxml.mix (Pxml.mix h (Hashtbl.hash k)) (Hashtbl.hash v))
             (Pxml.mix 5 (Hashtbl.hash tag)) attrs)
          kids
    | K_dist choices ->
        List.fold_left (fun h (p, ids) -> mix_ids (Pxml.mix h (Int64.to_int (bits p))) ids) 17 choices)

let equal_key a b =
  match (a, b) with
  | K_text x, K_text y -> String.equal x y
  | K_elem (t1, a1, k1), K_elem (t2, a2, k2) ->
      String.equal t1 t2
      && List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2) a1 a2
      && List.equal Int.equal k1 k2
  | K_dist c1, K_dist c2 ->
      List.equal
        (fun (p1, i1) (p2, i2) -> Int64.equal (bits p1) (bits p2) && List.equal Int.equal i1 i2)
        c1 c2
  | (K_text _ | K_elem _ | K_dist _), _ -> false

module Keys = Hashtbl.Make (struct
  type t = key

  let equal = equal_key

  let hash = hash_key
end)

module Strings = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash = Hashtbl.hash
end)

type defs = { ids : int Keys.t; mutable next : int }

type encoder = {
  buf : Buffer.t;
  strings : int Strings.t;
  trees : defs;
  nodes : int Pxml.Table.t;
  dists : defs;
}

let put_string e s =
  match Strings.find_opt e.strings s with
  | Some k -> put_varint e.buf (k + 1)
  | None ->
      put_varint e.buf 0;
      put_varint e.buf (String.length s);
      Buffer.add_string e.buf s;
      Strings.add e.strings s (Strings.length e.strings)

let put_attrs e attrs =
  put_varint e.buf (List.length attrs);
  List.iter
    (fun (k, v) ->
      put_string e k;
      put_string e v)
    attrs

(* [close e defs ~start key] ends the definition whose body was written
   from buffer offset [start]: a new key gets the next id, a known one
   replaces the body by a back-reference. Either way the result is the
   node's id. *)
let close e defs ~start key =
  match Keys.find_opt defs.ids key with
  | Some k ->
      Buffer.truncate e.buf start;
      put_varint e.buf (k + 1);
      k
  | None ->
      let k = defs.next in
      Keys.add defs.ids key k;
      defs.next <- k + 1;
      k

(* [List.map] applies its function left to right, the order the decoder
   reads the children in. *)
let rec put_tree e t =
  let start = Buffer.length e.buf in
  put_varint e.buf 0;
  let key =
    match t with
    | Tree.Text s ->
        Buffer.add_char e.buf '\000';
        put_string e s;
        K_text s
    | Tree.Element (name, attrs, children) ->
        Buffer.add_char e.buf '\001';
        put_string e name;
        put_attrs e attrs;
        put_varint e.buf (List.length children);
        K_elem (name, attrs, List.map (put_tree e) children)
  in
  close e e.trees ~start key

let rec put_node e (n : Pxml.node) =
  match Pxml.Table.find_opt e.nodes n with
  | Some k ->
      put_varint e.buf (k + 1);
      k
  | None ->
      put_varint e.buf 0;
      (match n with
      | Pxml.Text s ->
          Buffer.add_char e.buf '\000';
          put_string e s
      | Pxml.Elem (tag, attrs, content) ->
          Buffer.add_char e.buf '\001';
          put_string e tag;
          put_attrs e attrs;
          put_varint e.buf (List.length content);
          List.iter (fun d -> ignore (put_dist e d : int)) content);
      let k = Pxml.Table.length e.nodes in
      Pxml.Table.add e.nodes n k;
      k

and put_dist e (d : Pxml.dist) =
  let start = Buffer.length e.buf in
  put_varint e.buf 0;
  put_varint e.buf (List.length d.choices);
  let key =
    K_dist
      (List.map
         (fun (c : Pxml.choice) ->
           put_float e.buf c.prob;
           put_varint e.buf (List.length c.nodes);
           (c.prob, List.map (put_node e) c.nodes))
         d.choices)
  in
  close e e.dists ~start key

let encode ~kind put v =
  let defs () = { ids = Keys.create 64; next = 0 } in
  let e =
    {
      buf = Buffer.create 1024;
      strings = Strings.create 64;
      trees = defs ();
      nodes = Pxml.Table.create 64;
      dists = defs ();
    }
  in
  ignore (put e v : int);
  let payload = Buffer.contents e.buf in
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr kind);
  put_varint buf (String.length payload);
  put_u32le buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let tree_to_string t = encode ~kind:0 put_tree t

let doc_to_string d = encode ~kind:1 put_dist d

(* ---- decoding ---------------------------------------------------------- *)

type decoder = {
  r : reader;
  dstrings : string Dtbl.t;
  dtrees : Tree.t Dtbl.t;
  dnodes : Pxml.node Dtbl.t;
  ddists : Pxml.dist Dtbl.t;
}

let get_string d =
  let k = get_varint d.r in
  if k > 0 then Dtbl.get d.r d.dstrings (k - 1)
  else begin
    let s = get_bytes d.r (get_count d.r) in
    Dtbl.append d.dstrings s;
    s
  end

let get_attrs d =
  List.init (get_count d.r) (fun _ ->
      let k = get_string d in
      let v = get_string d in
      (k, v))

let rec get_tree d =
  let k = get_varint d.r in
  if k > 0 then Dtbl.get d.r d.dtrees (k - 1)
  else begin
    let t =
      match byte d.r with
      | 0 -> Tree.Text (get_string d)
      | 1 ->
          let name = get_string d in
          let attrs = get_attrs d in
          Tree.Element (name, attrs, List.init (get_count d.r) (fun _ -> get_tree d))
      | k -> fail d.r (Fmt.str "unknown tree-node kind %d" k)
    in
    Dtbl.append d.dtrees t;
    t
  end

let rec get_node d : Pxml.node =
  let k = get_varint d.r in
  if k > 0 then Dtbl.get d.r d.dnodes (k - 1)
  else begin
    let n =
      match byte d.r with
      | 0 -> Pxml.Text (get_string d)
      | 1 ->
          let tag = get_string d in
          let attrs = get_attrs d in
          Pxml.Elem (tag, attrs, List.init (get_count d.r) (fun _ -> get_dist d))
      | k -> fail d.r (Fmt.str "unknown node kind %d" k)
    in
    Dtbl.append d.dnodes n;
    n
  end

and get_dist d : Pxml.dist =
  let k = get_varint d.r in
  if k > 0 then Dtbl.get d.r d.ddists (k - 1)
  else begin
    let n = get_count d.r in
    if n = 0 then fail d.r "probability node with no possibilities";
    let choices =
      List.init n (fun _ ->
          let prob = get_float d.r in
          { Pxml.prob; nodes = List.init (get_count d.r) (fun _ -> get_node d) })
    in
    (* the structural invariants (probabilities in range, sums within
       epsilon of 1) are enforced exactly as the XML codec enforces them *)
    let dist = try Pxml.dist choices with Pxml.Invalid msg -> fail d.r msg in
    Dtbl.append d.ddists dist;
    dist
  end

let of_string s =
  let n = String.length s in
  try
    if n < 6 || String.sub s 0 4 <> magic then Error "bad magic: not a binary document"
    else if Char.code s.[4] <> version then
      Error (Fmt.str "unsupported binary format version %d" (Char.code s.[4]))
    else begin
      let kind = Char.code s.[5] in
      let r = { s; pos = 6; limit = n } in
      let len = get_varint r in
      let crc = get_u32le r in
      if n - r.pos <> len then
        Error
          (Fmt.str "payload length mismatch: frame declares %d bytes, found %d" len
             (n - r.pos))
      else begin
        let payload_start = r.pos in
        let payload = String.sub s payload_start len in
        if crc32 payload <> crc then
          Error "payload fails its CRC-32 (torn write or bit corruption)"
        else begin
          let d =
            {
              r;
              dstrings = Dtbl.create ();
              dtrees = Dtbl.create ();
              dnodes = Dtbl.create ();
              ddists = Dtbl.create ();
            }
          in
          let v =
            match kind with
            | 0 -> Certain (get_tree d)
            | 1 -> Probabilistic (get_dist d)
            | k -> fail r (Fmt.str "unknown document kind %d" k)
          in
          if r.pos <> r.limit then Error "trailing bytes after document"
          else Ok v
        end
      end
    end
  with Bad msg -> Error msg

let is_binary s = String.length s >= 4 && String.sub s 0 4 = magic
