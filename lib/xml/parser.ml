type error = { line : int; column : int; message : string }

let pp_error ppf e = Fmt.pf ppf "%d:%d: %s" e.line e.column e.message

let error_to_string e = Fmt.str "%a" pp_error e

exception Error of error

type state = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let fail st message =
  raise (Error { line = st.line; column = st.pos - st.bol + 1; message })

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let next st =
  let c = peek st in
  if eof st then fail st "unexpected end of input";
  advance st;
  c

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then
    for _ = 1 to String.length s do
      advance st
    done
  else fail st (Fmt.str "expected %S" s)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_name s = s <> "" && is_name_start s.[0] && String.for_all is_name_char s

let parse_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Encode a Unicode scalar value as UTF-8. *)
let utf8_of_code code =
  let buf = Buffer.create 4 in
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end;
  Buffer.contents buf

let parse_reference st =
  expect st "&";
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    while
      (not (eof st))
      &&
      match peek st with
      | '0' .. '9' -> true
      | 'a' .. 'f' | 'A' .. 'F' -> hex
      | _ -> false
    do
      advance st
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail st "invalid character reference"
    in
    if code < 0 || code > 0x10FFFF then fail st "character reference out of range";
    utf8_of_code code
  end
  else
    let name = parse_name st in
    expect st ";";
    match name with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "apos" -> "'"
    | "quot" -> "\""
    | other -> fail st (Fmt.str "unknown entity &%s;" other)

let parse_attr_value st =
  let quote = next st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | c when c = quote -> advance st
    | '&' -> Buffer.add_string buf (parse_reference st); go ()
    | '<' -> fail st "'<' in attribute value"
    | _ when eof st -> fail st "unterminated attribute value"
    | c -> advance st; Buffer.add_char buf c; go ()
  in
  go ();
  Buffer.contents buf

let skip_until st terminator what =
  let rec go () =
    if eof st then fail st (Fmt.str "unterminated %s" what)
    else if looking_at st terminator then expect st terminator
    else begin advance st; go () end
  in
  go ()

let skip_comment st = expect st "<!--"; skip_until st "-->" "comment"

let skip_pi st = expect st "<?"; skip_until st "?>" "processing instruction"

(* Skip <!DOCTYPE ...>, including a bracketed internal subset. *)
let skip_doctype st =
  expect st "<!DOCTYPE";
  let rec go depth =
    if eof st then fail st "unterminated DOCTYPE"
    else
      match next st with
      | '[' -> go (depth + 1)
      | ']' -> go (depth - 1)
      | '>' when depth = 0 -> ()
      | _ -> go depth
  in
  go 0

let parse_cdata st =
  expect st "<![CDATA[";
  let start = st.pos in
  let rec go () =
    if eof st then fail st "unterminated CDATA section"
    else if looking_at st "]]>" then begin
      let s = String.sub st.src start (st.pos - start) in
      expect st "]]>";
      s
    end
    else begin advance st; go () end
  in
  go ()

let rec parse_misc st =
  skip_space st;
  if looking_at st "<!--" then begin skip_comment st; parse_misc st end
  else if looking_at st "<?" then begin skip_pi st; parse_misc st end
  else if looking_at st "<!DOCTYPE" then begin skip_doctype st; parse_misc st end

let rec parse_element st =
  expect st "<";
  let tag = parse_name st in
  let rec attrs acc =
    skip_space st;
    match peek st with
    | '>' -> advance st; (List.rev acc, false)
    | '/' -> expect st "/>"; (List.rev acc, true)
    | _ ->
        let name = parse_name st in
        skip_space st;
        expect st "=";
        skip_space st;
        let value = parse_attr_value st in
        if List.mem_assoc name acc then fail st (Fmt.str "duplicate attribute %s" name);
        attrs ((name, value) :: acc)
  in
  let attributes, self_closing = attrs [] in
  if self_closing then Tree.Element (tag, attributes, [])
  else begin
    let children = parse_content st in
    expect st "</";
    let close = parse_name st in
    if close <> tag then fail st (Fmt.str "mismatched close tag </%s> for <%s>" close tag);
    skip_space st;
    expect st ">";
    Tree.Element (tag, attributes, children)
  end

and parse_content st =
  let buf = Buffer.create 16 in
  let flush acc =
    if Buffer.length buf = 0 then acc
    else begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      Tree.Text s :: acc
    end
  in
  let rec go acc =
    if eof st then fail st "unterminated element content"
    else if looking_at st "</" then List.rev (flush acc)
    else if looking_at st "<!--" then begin skip_comment st; go acc end
    else if looking_at st "<![CDATA[" then begin
      Buffer.add_string buf (parse_cdata st);
      go acc
    end
    else if looking_at st "<?" then begin skip_pi st; go acc end
    else if peek st = '<' then begin
      let acc = flush acc in
      let child = parse_element st in
      go (child :: acc)
    end
    else if peek st = '&' then begin
      Buffer.add_string buf (parse_reference st);
      go acc
    end
    else begin
      Buffer.add_char buf (next st);
      go acc
    end
  in
  go []

let parse_string s =
  let st = { src = s; pos = 0; line = 1; bol = 0 } in
  try
    parse_misc st;
    if eof st then fail st "no root element";
    if peek st <> '<' then fail st "expected root element";
    let root = parse_element st in
    parse_misc st;
    if not (eof st) then fail st "trailing content after root element";
    Ok root
  with Error e -> Result.Error e

let parse_string_exn s =
  match parse_string s with
  | Ok t -> t
  | Result.Error e -> failwith (Fmt.str "XML parse error at %a" pp_error e)

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string s
