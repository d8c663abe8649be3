(* Binary codec certification: the compact v3 format must be a perfect
   round-trip and fail loudly on damage.

   - 500 random probabilistic documents (seeded, reproducible) encode and
     decode BIT-identically — probabilities compared by their IEEE-754
     bits, not an epsilon — and re-encoding a decoded (physically shared)
     document gives the same bytes, as does encoding an unshared copy
     of a document whose joint probability nodes repeat node objects
     (the §VI and Figure 2 integrations among them); plus the XML attribute codec
     round-trip on hostile floats (0.1 +. 0.2, subnormals, 1e-300).
   - The encoder shares strings by value and subtrees by structure. The
     reference below writes legacy frames, shared by allocation only:
     those must decode bit-exactly to the same document, and the new
     frame is never longer. A frame written by an earlier encoder
     (Figure 2) is pinned and must decode bit-exactly. A tree beside its
     fresh-string deep copy costs exactly one back-reference.
   - CRC-32 gives the IEEE check value and agrees with the reference's.
   - Corruption is detected, never crashes: every truncation of a frame
     and every single-bit flip in a payload decodes to [Error]; so do
     CRC-valid frames whose counts or lengths are negative or run past
     the payload. A store load over a corrupted or hostile binary file
     quarantines it.
   - Saves write only .ipx files under a version-3 manifest; a legacy
     store of XML files under a version-2 manifest loads, and a save
     migrates it with the same documents and the same ranked answers on
     the paper's pinned queries (§VI Q1/Q2, Figure 2).

   Runs under `dune runtest` and alone via `dune build @codec-stress`;
   case count is overridable through CODEC_CASES. *)

module Pxml = Imprecise.Pxml
module Tree = Imprecise.Tree
module Codec = Imprecise.Codec
module Bincodec = Imprecise.Bincodec
module Compact = Imprecise.Compact
module Store = Imprecise.Store
module Pquery = Imprecise.Pquery
module Answer = Imprecise.Answer
module Prng = Imprecise.Data.Prng
module Random_docs = Imprecise.Data.Random_docs
module Addressbook = Imprecise.Data.Addressbook
module Workloads = Imprecise.Data.Workloads

let cases =
  match Sys.getenv_opt "CODEC_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 500)
  | None -> 500

let failures = ref 0

let fail seed fmt =
  Fmt.kstr
    (fun msg ->
      incr failures;
      Fmt.epr "[codec-stress] seed %d: %s@." seed msg)
    fmt

(* Bit-exact structural equality: Pxml.equal tolerates an epsilon on
   probabilities, which would hide a decode that drifted by one ulp. *)
let rec exact_node a b =
  match (a, b) with
  | Pxml.Text x, Pxml.Text y -> String.equal x y
  | Pxml.Elem (t1, a1, c1), Pxml.Elem (t2, a2, c2) ->
      String.equal t1 t2 && a1 = a2 && List.equal exact_dist c1 c2
  | _ -> false

and exact_dist (a : Pxml.dist) (b : Pxml.dist) = List.equal exact_choice a.choices b.choices

and exact_choice (a : Pxml.choice) (b : Pxml.choice) =
  Int64.bits_of_float a.prob = Int64.bits_of_float b.prob
  && List.equal exact_node a.nodes b.nodes

(* ---- the reference encoder ---------------------------------------------

   A writer of legacy frames: the same layout, written with == tables, so
   a value is shared only where it is the same allocation (a string read
   twice from a file is written twice). Earlier encoders wrote such frames
   and stores still hold them; the decoder must read them. Its CRC-32 is
   the boxed Int32 loop the store used to carry twice. *)

module Reference = struct
  let crc32 s =
    let table =
      Array.init 256 (fun n ->
          let c = ref (Int32.of_int n) in
          for _ = 0 to 7 do
            c :=
              if Int32.logand !c 1l <> 0l then
                Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
              else Int32.shift_right_logical !c 1
          done;
          !c)
    in
    let crc = ref 0xFFFFFFFFl in
    String.iter
      (fun ch ->
        let i =
          Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
        in
        crc := Int32.logxor table.(i) (Int32.shift_right_logical !crc 8))
      s;
    Int32.logxor !crc 0xFFFFFFFFl

  let put_varint buf n =
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

  let put_float buf f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      Buffer.add_char buf
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
    done

  module Etbl (T : sig
    type t
  end) =
  struct
    module H = Hashtbl.Make (struct
      type t = T.t

      let equal = ( == )

      let hash = Hashtbl.hash
    end)

    type t = { tbl : int H.t; mutable next : int }

    let create () = { tbl = H.create 64; next = 0 }

    let find t v = H.find_opt t.tbl v

    let define t v =
      H.replace t.tbl v t.next;
      t.next <- t.next + 1
  end

  module Stbl = Etbl (struct
    type t = string
  end)

  module Ttbl = Etbl (struct
    type t = Tree.t
  end)

  module Ntbl = Etbl (struct
    type t = Pxml.node
  end)

  module Dstbl = Etbl (struct
    type t = Pxml.dist
  end)

  type encoder = {
    buf : Buffer.t;
    strings : Stbl.t;
    trees : Ttbl.t;
    nodes : Ntbl.t;
    dists : Dstbl.t;
  }

  let put_string e s =
    match Stbl.find e.strings s with
    | Some k -> put_varint e.buf (k + 1)
    | None ->
        put_varint e.buf 0;
        put_varint e.buf (String.length s);
        Buffer.add_string e.buf s;
        Stbl.define e.strings s

  let put_attrs e attrs =
    put_varint e.buf (List.length attrs);
    List.iter
      (fun (k, v) ->
        put_string e k;
        put_string e v)
      attrs

  let rec put_tree e t =
    match Ttbl.find e.trees t with
    | Some k -> put_varint e.buf (k + 1)
    | None ->
        put_varint e.buf 0;
        (match t with
        | Tree.Text s ->
            Buffer.add_char e.buf '\000';
            put_string e s
        | Tree.Element (name, attrs, children) ->
            Buffer.add_char e.buf '\001';
            put_string e name;
            put_attrs e attrs;
            put_varint e.buf (List.length children);
            List.iter (put_tree e) children);
        Ttbl.define e.trees t

  let rec put_node e (n : Pxml.node) =
    match Ntbl.find e.nodes n with
    | Some k -> put_varint e.buf (k + 1)
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
            List.iter (put_dist e) content);
        Ntbl.define e.nodes n

  and put_dist e (d : Pxml.dist) =
    match Dstbl.find e.dists d with
    | Some k -> put_varint e.buf (k + 1)
    | None ->
        put_varint e.buf 0;
        put_varint e.buf (List.length d.choices);
        List.iter
          (fun (c : Pxml.choice) ->
            put_float e.buf c.prob;
            put_varint e.buf (List.length c.nodes);
            List.iter (put_node e) c.nodes)
          d.choices;
        Dstbl.define e.dists d

  let encoder () =
    {
      buf = Buffer.create 1024;
      strings = Stbl.create ();
      trees = Ttbl.create ();
      nodes = Ntbl.create ();
      dists = Dstbl.create ();
    }

  let frame ~kind payload =
    let buf = Buffer.create (String.length payload + 16) in
    Buffer.add_string buf "IPXB";
    Buffer.add_char buf (Char.chr 1);
    Buffer.add_char buf (Char.chr kind);
    put_varint buf (String.length payload);
    put_u32le buf (crc32 payload);
    Buffer.add_string buf payload;
    Buffer.contents buf

  let tree_to_string t =
    let e = encoder () in
    put_tree e t;
    frame ~kind:0 (Buffer.contents e.buf)

  let doc_to_string d =
    let e = encoder () in
    put_dist e d;
    frame ~kind:1 (Buffer.contents e.buf)
end

let no_longer seed what ~reference frame =
  if String.length frame > String.length reference then
    fail seed "%s: frame longer than the reference encoder's (%d vs %d bytes)" what
      (String.length frame) (String.length reference)

(* The payload starts after magic, version, kind, the varint length and
   4 CRC bytes. *)
let header_length frame =
  let rec skip_varint i =
    if Char.code frame.[i] land 0x80 <> 0 then skip_varint (i + 1) else i + 1
  in
  skip_varint 6 + 4

let decode_doc frame =
  match Bincodec.of_string frame with
  | Ok (Bincodec.Probabilistic d) -> Ok d
  | Ok (Bincodec.Certain _) -> Error "decoded as certain"
  | Error e -> Error e

let decode_tree frame =
  match Bincodec.of_string frame with
  | Ok (Bincodec.Certain t) -> Ok t
  | Ok (Bincodec.Probabilistic _) -> Error "decoded as probabilistic"
  | Error e -> Error e

(* ---- random round-trips ------------------------------------------------ *)

(* [check_doc seed what doc] encodes [doc] and requires: a bit-exact
   decode, the same bytes when the decoded document is encoded again, a
   reference frame that decodes bit-exactly to the same document, and no
   more bytes than the reference's. Returns the frame. *)
let check_doc seed what doc =
  let frame = Bincodec.doc_to_string doc in
  let reference = Reference.doc_to_string doc in
  no_longer seed what ~reference frame;
  List.iter
    (fun (whose, f) ->
      match decode_doc f with
      | Ok d ->
          if not (exact_dist doc d) then fail seed "%s: %s round-trip changed it" what whose;
          if not (String.equal (Bincodec.doc_to_string d) frame) then
            fail seed "%s: re-encoding the %s decode changed the bytes" what whose
      | Error e -> fail seed "%s: %s round-trip failed: %s" what whose e)
    [ ("binary", frame); ("reference", reference) ];
  frame

(* Trees compare raw: [Tree.equal]'s canonical form would hide a decode
   that dropped whitespace text. *)
let check_tree seed what tree =
  let frame = Bincodec.tree_to_string tree in
  let reference = Reference.tree_to_string tree in
  no_longer seed what ~reference frame;
  List.iter
    (fun (whose, f) ->
      match decode_tree f with
      | Ok t ->
          if Tree.compare_raw tree t <> 0 then fail seed "%s: %s round-trip changed it" what whose;
          if not (String.equal (Bincodec.tree_to_string t) frame) then
            fail seed "%s: re-encoding the %s decode changed the bytes" what whose
      | Error e -> fail seed "%s: %s round-trip failed: %s" what whose e)
    [ ("tree", frame); ("reference", reference) ]

(* A deep copy whose every string is a fresh allocation: the reference
   writes it out in full, the encoder as one back-reference. [tail] then
   defines one more string and refers back to it, so an id defined inside
   the cut-back copy would show. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

let fresh_attrs = List.map (fun (k, v) -> (fresh k, fresh v))

let rec fresh_tree = function
  | Tree.Text s -> Tree.Text (fresh s)
  | Tree.Element (n, attrs, children) ->
      Tree.Element (fresh n, fresh_attrs attrs, List.map fresh_tree children)

let rec fresh_node = function
  | Pxml.Text s -> Pxml.Text (fresh s)
  | Pxml.Elem (tag, attrs, content) -> Pxml.Elem (fresh tag, fresh_attrs attrs, List.map fresh_dist content)

and fresh_dist (d : Pxml.dist) =
  Pxml.dist_unchecked
    (List.map (fun (c : Pxml.choice) -> { c with Pxml.nodes = List.map fresh_node c.nodes }) d.choices)

let varint_length n =
  let rec go n = if n < 0x80 then 1 else 1 + go (n lsr 7) in
  go n

(* Distinct subtrees of [t] as written: the number of tree definitions its
   frame makes. *)
let distinct_subtrees t =
  let seen = Hashtbl.create 64 in
  Tree.iter (fun n -> Hashtbl.replace seen n ()) t;
  Hashtbl.length seen

(* [pair [t; copy]] costs [pair [t]] plus one back-reference to [t], whose
   id is its post-order position: the last of its distinct subtrees. *)
let check_copy_is_one_reference seed tree =
  let payload t =
    let frame = Bincodec.tree_to_string t in
    String.length frame - header_length frame
  in
  let single = payload (Tree.Element ("pair", [], [ tree ]))
  and double = payload (Tree.Element ("pair", [], [ tree; fresh_tree tree ])) in
  let reference = varint_length (distinct_subtrees tree) in
  if double - single <> reference then
    fail seed "a fresh deep copy cost %d bytes, not one %d-byte back-reference" (double - single)
      reference

(* A node met again as the same object under a multi-choice probability
   node is written as a back-reference without a walk; the bytes must be
   those of an unshared copy, whose repeat the key lookup finds. *)
let check_identity_lookup seed what doc =
  if not (String.equal (Bincodec.doc_to_string doc) (Bincodec.doc_to_string (fresh_dist doc)))
  then fail seed "%s: the frame differs from that of an unshared copy" what

let check_roundtrip seed =
  let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:(2 + (seed mod 2))) in
  ignore (check_doc seed "document" doc);
  (* a joint probability node repeating its nodes, as integration's does *)
  let nodes = List.concat_map (fun (c : Pxml.choice) -> c.Pxml.nodes) doc.Pxml.choices in
  let joint =
    Pxml.certain
      [
        Pxml.elem "joint"
          [ Pxml.dist [ Pxml.choice ~prob:0.5 nodes; Pxml.choice ~prob:0.5 (List.rev nodes) ] ];
      ]
  in
  ignore (check_doc seed "joint document" joint);
  check_identity_lookup seed "joint document" joint;
  let tail =
    let s = fresh "tail" in
    Pxml.Elem ("t", [ ("k", s) ], [ Pxml.certain [ Pxml.Text s ] ])
  in
  ignore
    (check_doc seed "document, fresh copy, tail"
       (Pxml.certain [ Pxml.elem "pair" [ doc; fresh_dist doc; Pxml.certain [ tail ] ] ]));
  (* certain trees use the same frame *)
  let tree = fst (Random_docs.xml (Prng.make (seed + 7919)) ~depth:2) in
  check_tree seed "tree" tree;
  let tail =
    let s = fresh "tail" in
    Tree.Element ("t", [ ("k", s) ], [ Tree.Text s ])
  in
  check_tree seed "tree, fresh copy, tail"
    (Tree.Element ("pair", [], [ tree; fresh_tree tree; tail ]));
  check_copy_is_one_reference seed tree

(* ---- CRC-32 ------------------------------------------------------------ *)

let check_crc () =
  (* the IEEE check value *)
  if Bincodec.crc32 "123456789" <> 0xCBF43926l then
    fail 0 "crc32 \"123456789\" = %08lx, want cbf43926" (Bincodec.crc32 "123456789");
  if Bincodec.crc32 "" <> 0l then fail 0 "crc32 of the empty string is not 0";
  (* and the reference's value on every byte and on longer random strings *)
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun s ->
      if Bincodec.crc32 s <> Reference.crc32 s then
        fail 0 "crc32 differs from the reference on a %d-byte string" (String.length s))
    (List.init 256 (fun i -> String.make 1 (Char.chr i))
    @ List.init 50 (fun n ->
          String.init (n * 37) (fun _ -> Char.chr (Random.State.int rng 256))))

(* ---- the XML attribute codec on hostile floats ------------------------- *)

let hostile_probs =
  [
    0.1 +. 0.2;
    1. -. (0.1 +. 0.2);
    1e-300;
    1. -. 1e-300;
    Float.min_float (* smallest normal *);
    4.9e-324 (* smallest subnormal *);
    0.5;
    1. /. 3.;
    0.30000000000000004;
    1. -. 0.30000000000000004 -. 1e-300;
  ]

let check_float_attr () =
  List.iter
    (fun p ->
      (* the attribute printer must round-trip every float bit-for-bit *)
      let s = Codec.float_to_attr p in
      match float_of_string_opt s with
      | None -> fail 0 "float_to_attr printed unparsable %S" s
      | Some q ->
          if Int64.bits_of_float q <> Int64.bits_of_float p then
            fail 0 "float_to_attr drifted: %h printed as %S, parses to %h" p s q)
    (hostile_probs @ List.map (fun p -> 1. -. p) hostile_probs);
  (* and through a whole document: a two-way choice with hostile split *)
  List.iter
    (fun p ->
      if p > 0. && p < 1. then
        let q = 1. -. p in
        let doc =
          Pxml.dist_unchecked
            [
              { Pxml.prob = p; nodes = [ Pxml.Text "yes" ] };
              { Pxml.prob = q; nodes = [ Pxml.Text "no" ] };
            ]
        in
        match Codec.of_string (Codec.to_string doc) with
        | Error e -> fail 0 "xml codec rejected hostile-prob doc: %s" e
        | Ok d ->
            if not (exact_dist doc d) then
              fail 0 "xml codec drifted on probability %h" p)
    hostile_probs

(* ---- corruption -------------------------------------------------------- *)

let check_corruption seed =
  let doc = fst (Random_docs.pxml (Prng.make seed) ~depth:2) in
  let frame = Bincodec.doc_to_string doc in
  let n = String.length frame in
  (* every truncation fails cleanly *)
  List.iter
    (fun k ->
      if k < n then
        match Bincodec.of_string (String.sub frame 0 k) with
        | Error _ -> ()
        | Ok _ -> fail seed "truncation to %d bytes decoded successfully" k)
    [ 0; 1; 3; 4; 5; 6; n / 4; n / 2; n - 1 ];
  (* every single-bit flip in the payload region is caught by the CRC (the
     header region fails on magic/version/kind/length checks instead) *)
  let header_len = header_length frame in
  let flip pos bit =
    let b = Bytes.of_string frame in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    Bytes.to_string b
  in
  let step = max 1 ((n - header_len) / 16) in
  let pos = ref header_len in
  while !pos < n do
    (match Bincodec.of_string (flip !pos (!pos mod 8)) with
    | Error _ -> ()
    | Ok _ -> fail seed "bit flip at byte %d went undetected" !pos);
    pos := !pos + step
  done

(* CRC-valid frames whose counts or lengths are damaged: decoding them
   must stop at the count, before [List.init] or [String.sub] sees it. *)
let minus_one = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" (* varint of -1 *)

let near_max_int = "\xff\xff\xff\xff\xff\xff\xff\xff\x3f" (* varint of max_int *)

let one = "\x00\x00\x00\x00\x00\x00\xf0\x3f" (* 1.0, little-endian *)

let hostile_frames =
  let elem_a = "\x00\x01\x00\x01a" (* define an element, define its tag "a" *) in
  [
    ("negative attribute count", 0, elem_a ^ minus_one);
    ("negative child count", 0, elem_a ^ "\x00" ^ minus_one);
    ("child count past the payload", 0, elem_a ^ "\x00\x64");
    ("string length near max_int", 0, "\x00\x00\x00" ^ near_max_int ^ "abc");
    ("negative string length", 0, "\x00\x00\x00" ^ minus_one ^ "abc");
    ("negative choice count", 1, "\x00" ^ minus_one);
    ("negative node count", 1, "\x00\x01" ^ one ^ minus_one);
    ("negative node attribute count", 1, "\x00\x01" ^ one ^ "\x01" ^ elem_a ^ minus_one);
    ("negative content count", 1, "\x00\x01" ^ one ^ "\x01" ^ elem_a ^ "\x00" ^ minus_one);
  ]
  |> List.map (fun (what, kind, payload) -> (what, Reference.frame ~kind payload))

let check_hostile_frames () =
  List.iter
    (fun (what, frame) ->
      match Bincodec.of_string frame with
      | Error _ -> ()
      | Ok _ -> fail 0 "hostile frame (%s) decoded successfully" what
      | exception e -> fail 0 "hostile frame (%s) raised %s" what (Printexc.to_string e))
    hostile_frames

(* ---- stores: legacy XML, binary v3, migration, pinned answers --------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "imprecise-codec-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let rank_sig doc query =
  List.map (fun (a : Answer.t) -> Fmt.str "%s@%.12g" a.Answer.value a.Answer.prob)
    (Pquery.rank doc query)

(* §VI Q1/Q2 on the movie workload and the Figure 2 integration: the pinned
   queries whose answers a binary reload must preserve exactly. *)
let fig2 () =
  match
    Imprecise.integrate ~rules:Imprecise.Rulesets.generic ~dtd:Addressbook.dtd
      Addressbook.source_a Addressbook.source_b
  with
  | Ok doc -> doc
  | Error _ -> failwith "fig2 integration failed"

let pinned_docs () =
  let fig2 = fig2 () in
  let wl = Workloads.confusing () in
  let rules = Imprecise.Rulesets.movie ~genre:true ~title:true ~director:true () in
  let movies =
    match
      Imprecise.integrate ~rules ~dtd:wl.Workloads.dtd (Workloads.mpeg7_doc wl)
        (Workloads.imdb_doc wl)
    with
    | Ok doc -> doc
    | Error _ -> failwith "§VI movie integration failed"
  in
  [
    ("fig2", fig2, [ "//person/nm"; "//person/tel" ]);
    ( "movies",
      movies,
      [
        {|//movie[.//genre="Horror"]/title|};
        {|//movie[some $d in .//director satisfies contains($d,"John")]/title|};
      ] );
  ]

(* A store as earlier versions wrote it: one indented XML file per
   document, [<name>.g1.xml], committed by a version-2 manifest. *)
let write_legacy_store dir docs =
  Sys.mkdir dir 0o755;
  let write file data =
    Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
        Out_channel.output_string oc data)
  in
  let entries =
    List.map
      (fun (name, doc) ->
        let tree, kind =
          match doc with
          | Store.Certain t -> (t, "certain")
          | Store.Probabilistic d -> (Codec.encode d, "probabilistic")
        in
        let data = Imprecise.Xml.Printer.to_string ~decl:true ~indent:2 tree ^ "\n" in
        let file = name ^ ".g1.xml" in
        write file data;
        Fmt.str "%s %s %d %08lx %s\n" name kind (String.length data) (Reference.crc32 data) file)
      docs
  in
  let block = String.concat "" entries in
  write "MANIFEST"
    (Fmt.str "imprecise-manifest 2\n%send %d %08lx\n" block (List.length docs)
       (Reference.crc32 block))

let files_with suffix dir =
  List.filter (fun f -> Filename.check_suffix f suffix) (Array.to_list (Sys.readdir dir))

let check_stores () =
  let docs = pinned_docs () in
  let certain = Tree.element "root" [ Tree.leaf "k" "v" ] in
  let store = Store.create () in
  List.iter (fun (name, doc, _) -> Store.put store name (Store.Probabilistic doc)) docs;
  Store.put store "certain" (Store.Certain certain);
  let pins =
    List.concat_map (fun (name, doc, qs) -> List.map (fun q -> (name, q, rank_sig doc q)) qs) docs
  in
  let check_loaded label loaded =
    List.iter
      (fun (name, q, expected) ->
        match Store.get_probabilistic loaded name with
        | None -> fail 0 "%s: document %s missing after reload" label name
        | Some doc ->
            let got = rank_sig doc q in
            if got <> expected then
              fail 0 "%s: %s answers changed after reload (%s)" label q
                (String.concat "; " got))
      pins;
    match Store.get_certain loaded "certain" with
    | Some t when Tree.equal t certain -> ()
    | _ -> fail 0 "%s: certain document damaged" label
  in
  (* a save writes one .ipx per document under a version-3 manifest:
     same documents, same answers *)
  with_tmp_dir (fun dir ->
      (match Store.save store ~dir with Ok () -> () | Error e -> fail 0 "save: %s" e);
      let ipx = files_with ".ipx" dir in
      if List.length ipx <> Store.size store then
        fail 0 "save wrote %d .ipx files for %d documents" (List.length ipx) (Store.size store);
      if List.sort String.compare (Array.to_list (Sys.readdir dir))
         <> List.sort String.compare ("MANIFEST" :: ipx)
      then fail 0 "save wrote files other than .ipx documents and the manifest";
      (match In_channel.with_open_bin (Filename.concat dir "MANIFEST") In_channel.input_line with
      | Some "imprecise-manifest 3" -> ()
      | _ -> fail 0 "manifest does not carry the version-3 header");
      (match Store.load dir with
      | Ok (loaded, report) ->
          if not (Store.recovered_all report) then fail 0 "binary load not clean";
          if report.Store.manifest <> `Ok then fail 0 "binary manifest not verified";
          check_loaded "binary" loaded
      | Error e -> fail 0 "binary load: %s" e);
      (* corrupt one binary payload byte: the load must quarantine exactly
         that document and recover the rest *)
      let victim = List.hd (List.sort String.compare ipx) in
      let path = Filename.concat dir victim in
      let data = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string data in
      let pos = Bytes.length b - 1 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      match Store.load dir with
      | Ok (_, report) ->
          let bad =
            List.filter_map
              (fun (name, o) ->
                match o with Store.Quarantined _ -> Some name | _ -> None)
              report.Store.docs
          in
          if List.length bad <> 1 then
            fail 0 "corrupted binary store: expected 1 quarantined doc, got %d"
              (List.length bad)
      | Error e -> fail 0 "corrupted binary store refused to load: %s" e);
  (* migration: a legacy XML store loads with the same answers, and a save
     rewrites it as .ipx with the same answers *)
  with_tmp_dir (fun dir ->
      write_legacy_store dir
        (("certain", Store.Certain certain)
        :: List.map (fun (name, doc, _) -> (name, Store.Probabilistic doc)) docs);
      (match Store.load dir with
      | Ok (loaded, report) -> (
          if not (Store.recovered_all report && report.Store.manifest = `Ok) then
            fail 0 "legacy XML store not clean";
          check_loaded "legacy xml" loaded;
          match Store.save loaded ~dir with
          | Ok () -> ()
          | Error e -> fail 0 "migrate save: %s" e)
      | Error e -> fail 0 "legacy load: %s" e);
      if files_with ".xml" dir <> [] then fail 0 "migration left XML document files behind";
      if List.length (files_with ".ipx" dir) <> Store.size store then
        fail 0 "migration did not write one .ipx per document";
      match Store.load dir with
      | Ok (loaded, report) ->
          if not (Store.recovered_all report && report.Store.manifest = `Ok) then
            fail 0 "migrated store not clean";
          check_loaded "migrated" loaded
      | Error e -> fail 0 "migrated load: %s" e)

(* A committed document replaced by a hostile frame, with a manifest that
   vouches for its bytes: the load reaches the decoder, which must report
   the damage so the document is quarantined (or the strict load refused),
   never raise. *)
let check_hostile_store () =
  with_tmp_dir (fun dir ->
      let store = Store.create () in
      let certain = Tree.element "root" [ Tree.leaf "k" "v" ] in
      Store.put store "good" (Store.Certain certain);
      Store.put store "hostile" (Store.Certain certain);
      (match Store.save store ~dir with Ok () -> () | Error e -> fail 0 "save: %s" e);
      let mpath = Filename.concat dir Store.Manifest.filename in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let write path data =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)
      in
      match Store.Manifest.of_string (read mpath) with
      | Error e -> fail 0 "hostile store: manifest unreadable: %s" e
      | Ok entries ->
          let data = List.assoc "string length near max_int" hostile_frames in
          write mpath
            (Store.Manifest.to_string
               (List.map
                  (fun (e : Store.Manifest.entry) ->
                    if e.name <> "hostile" then e
                    else begin
                      write (Filename.concat dir e.file) data;
                      { e with length = String.length data; crc = Bincodec.crc32 data }
                    end)
                  entries));
          (match Store.load ~mode:Store.Strict dir with
          | Ok _ -> fail 0 "hostile store: strict load accepted the hostile frame"
          | Error _ -> ()
          | exception e -> fail 0 "hostile store: strict load raised %s" (Printexc.to_string e));
          match Store.load dir with
          | Ok (loaded, report) ->
              (match List.assoc_opt "hostile" report.Store.docs with
              | Some (Store.Quarantined _) -> ()
              | _ -> fail 0 "hostile store: the hostile document was not quarantined");
              if Store.get_certain loaded "good" = None then
                fail 0 "hostile store: the intact document was not recovered"
          | Error e -> fail 0 "hostile store refused to load: %s" e
          | exception e -> fail 0 "hostile store: load raised %s" (Printexc.to_string e))

(* ---- a legacy frame ----------------------------------------------------

   Figure 2's integration as the allocation-sharing encoder of an earlier
   release wrote it. It must decode bit-exactly to today's integration,
   whose own frame is no longer. *)

let legacy_fig2_hex =
  "\
     495058420101de015f8e632a0001000000000000f03f010001000b61646472657373626f\
     6f6b00010002000000000000e03f0200010006706572736f6e00010001000000000000f0\
     3f02000100026e6d00010001000000000000f03f01000000044a6f686e0001000374656c\
     00010001000000000000f03f01000000043131313100010200010001000000000000f03f\
     020200010500010001000000000000f03f010000000432323232000000000000e03f0100\
     010200020001000000000000f03f01020001000000000000f03f01000105000100020000\
     00000000e03f0103000000000000e03f0106\
     "

let check_legacy_frame () =
  let frame = String.init (String.length legacy_fig2_hex / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub legacy_fig2_hex (2 * i) 2)))
  in
  let fig2 = fig2 () in
  (match decode_doc frame with
  | Ok d -> if not (exact_dist fig2 d) then fail 0 "legacy Figure 2 frame decodes differently"
  | Error e -> fail 0 "legacy Figure 2 frame: %s" e);
  no_longer 0 "Figure 2" ~reference:frame (Bincodec.doc_to_string fig2)

(* ---- size and sharing sanity ------------------------------------------- *)

let check_compression () =
  (* a document with heavy repetition: sharing must beat XML 4x, and each
     repeat of one of the three distinct persons is a back-reference *)
  let person i =
    Pxml.elem "person"
      [
        Pxml.certain
          [ Pxml.elem "nm" [ Pxml.certain [ Pxml.text "alice" ] ];
            Pxml.elem "tel" [ Pxml.certain [ Pxml.text (string_of_int (i mod 3)) ] ] ];
      ]
  in
  let book n = Pxml.certain [ Pxml.elem "book" [ Pxml.certain (List.init n person) ] ] in
  let doc = book 200 in
  let xml = Codec.to_string doc in
  let binary = Bincodec.doc_to_string doc in
  if String.length binary * 4 > String.length xml then
    fail 0 "binary did not compress a repetitive doc 4x (xml %d, binary %d)"
      (String.length xml) (String.length binary);
  let three = String.length (Bincodec.doc_to_string (book 3)) in
  if String.length binary > three + (197 * 2) then
    fail 0 "197 repeated persons cost %d bytes over the first three"
      (String.length binary - three)

let () =
  for i = 0 to cases - 1 do
    check_roundtrip i
  done;
  for i = 0 to 19 do
    check_corruption (1000 + i)
  done;
  check_hostile_frames ();
  check_float_attr ();
  check_crc ();
  check_stores ();
  check_hostile_store ();
  check_legacy_frame ();
  check_compression ();
  List.iter (fun (what, doc, _) -> check_identity_lookup 0 what doc) (pinned_docs ());
  Fmt.pr
    "codec-stress: %d round-trip cases, 20 corruption cases, %d hostile frames, %d hostile \
     floats, 3 store scenarios, %d failures@."
    cases (List.length hostile_frames)
    (List.length hostile_probs * 2)
    !failures;
  if !failures > 0 then exit 1
