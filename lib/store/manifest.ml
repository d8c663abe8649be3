type kind = Certain | Probabilistic

type entry = { name : string; kind : kind; length : int; crc : int32; file : string }

type t = entry list

let filename = "MANIFEST"

(* Version 3 = version 2 entries, except files may be compact binary
   ([.ipx]) as well as XML. Saves write version 3; versions 1 and 2 are
   still read. *)
let header = "imprecise-manifest 3"

let header_v2 = "imprecise-manifest 2"

(* version-1 manifests (no file field; documents lived at <name>.xml) are
   still readable *)
let header_v1 = "imprecise-manifest 1"

let crc32 = Imprecise_pxml.Bincodec.crc32

let kind_to_string = function Certain -> "certain" | Probabilistic -> "probabilistic"

let kind_of_string = function
  | "certain" -> Some Certain
  | "probabilistic" -> Some Probabilistic
  | _ -> None

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

let entry_line e =
  Fmt.str "%s %s %d %08lx %s" e.name (kind_to_string e.kind) e.length e.crc e.file

let to_string entries =
  let block = String.concat "" (List.map (fun e -> entry_line e ^ "\n") entries) in
  Fmt.str "%s\n%send %d %08lx\n" header block (List.length entries) (crc32 block)

let parse_crc s = if String.length s = 8 then Int32.of_string_opt ("0x" ^ s) else None

let parse_entry ~v1 line =
  let fields = String.split_on_char ' ' line in
  let parsed =
    match (v1, fields) with
    | true, [ name; kind; length; crc ] -> Some (name, kind, length, crc, name ^ ".xml")
    | false, [ name; kind; length; crc; file ] -> Some (name, kind, length, crc, file)
    | _ -> None
  in
  match parsed with
  | Some (name, kind, length, crc, file) -> (
      match (kind_of_string kind, int_of_string_opt length, parse_crc crc) with
      | Some kind, Some length, Some crc when name <> "" && length >= 0 && file <> "" ->
          Ok { name; kind; length; crc; file }
      | _ -> Error (Fmt.str "malformed manifest entry %S" line))
  | None -> Error (Fmt.str "malformed manifest entry %S" line)

let of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' s with
  | h :: rest when h = header || h = header_v2 || h = header_v1 ->
      let v1 = h = header_v1 in
      let block = Buffer.create 256 in
      let rec go acc = function
        | [] | [ "" ] -> Error "truncated manifest: no end line"
        | line :: rest -> (
            (* the end line has three fields; an entry (even one for a
               document named "end") always has four (v1) or five (v2) *)
            match String.split_on_char ' ' line with
            | [ "end"; count; crc ] -> (
                match (int_of_string_opt count, parse_crc crc) with
                | Some count, Some crc ->
                    if count <> List.length acc then
                      Error
                        (Fmt.str "manifest end line declares %d entries, found %d" count
                           (List.length acc))
                    else if crc <> crc32 (Buffer.contents block) then
                      Error "manifest entry block fails its checksum"
                    else if rest <> [] && rest <> [ "" ] then
                      Error "trailing data after manifest end line"
                    else Ok (List.rev acc)
                | _ -> Error (Fmt.str "malformed manifest end line %S" line))
            | _ ->
                let* e = parse_entry ~v1 line in
                if List.exists (fun e' -> e'.name = e.name || e'.file = e.file) acc then
                  Error (Fmt.str "duplicate manifest entry for %S" e.name)
                else begin
                  Buffer.add_string block (line ^ "\n");
                  go (e :: acc) rest
                end)
      in
      go [] rest
  | _ -> Error "bad or missing manifest header"

let find t name = List.find_opt (fun e -> e.name = name) t
