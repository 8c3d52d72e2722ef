type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of t_string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

and t_string = string

let schema_version = 2

let document ~kind fields =
  Obj (("schema", String kind) :: ("schema_version", Int schema_version) :: fields)

(* ---------- printing ---------- *)

(* Printed width of byte [c] inside a string body: quotes, backslashes
   and newlines take a two-byte escape, other control bytes a [\u00XX]. *)
let escaped_width c =
  match c with
  | '"' | '\\' | '\n' -> 2
  | c when Char.code c < 0x20 -> 6
  | _ -> 1

let escaped_length s =
  let len = ref 0 in
  for i = 0 to String.length s - 1 do
    len := !len + escaped_width (String.unsafe_get s i)
  done;
  !len

let hex_digits = "0123456789abcdef"

(* Escape-free runs go in with one [add_substring] each. *)
let add_escaped b s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if escaped_width c > 1 then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start)

let escape_string s =
  let len = escaped_length s in
  if len = String.length s then s
  else begin
    let b = Buffer.create len in
    add_escaped b s;
    Buffer.contents b
  end

(* Shortest representation that parses back to the same float, so dumps
   never lose precision yet stay readable for round numbers. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec add_to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
    if Float.is_finite v then Buffer.add_string b (float_repr v)
    else Buffer.add_string b "null"
  | String s ->
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  | List items ->
    Buffer.add_char b '[';
    add_items b items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    add_fields b fields;
    Buffer.add_char b '}'
  | Raw text -> Buffer.add_string b text

and add_items b = function
  | [] -> ()
  | [ item ] -> add_to_buffer b item
  | item :: rest ->
    add_to_buffer b item;
    Buffer.add_string b ", ";
    add_items b rest

and add_fields b = function
  | [] -> ()
  | [ field ] -> add_field b field
  | field :: rest ->
    add_field b field;
    Buffer.add_string b ", ";
    add_fields b rest

and add_field b (key, value) =
  Buffer.add_char b '"';
  add_escaped b key;
  Buffer.add_string b "\": ";
  add_to_buffer b value

(* The printed length of [v], exact except that an [Int] or a [Float]
   counts its widest rendering, so [to_string] sizes its buffer once. *)
let rec printed_bound = function
  | Null -> 4
  | Bool _ -> 5
  | Int _ -> 20
  | Float _ -> 24
  | String s -> escaped_length s + 2
  | Raw text -> String.length text
  | List items ->
    List.fold_left (fun acc item -> acc + printed_bound item + 2) 2 items
  | Obj fields ->
    List.fold_left
      (fun acc (key, value) -> acc + escaped_length key + 6 + printed_bound value)
      2 fields

let to_string v =
  let b = Buffer.create (printed_bound v) in
  add_to_buffer b v;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Parse_fail of int * string

let max_depth = 512

type cursor = { text : string; mutable pos : int }

let fail c msg = raise (Parse_fail (c.pos, msg))

(* The byte under the cursor, or ['\000'] at the end of input: callers
   that must tell the two apart test [at_end] first. *)
let peek c =
  if c.pos < String.length c.text then String.unsafe_get c.text c.pos else '\000'

let at_end c = c.pos >= String.length c.text

let skip_ws c =
  while
    match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if at_end c then fail c (Printf.sprintf "expected '%c', found end of input" ch)
  else if peek c = ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected '%c', found '%c'" ch (peek c))

let literal c word value =
  let len = String.length word in
  if
    c.pos + len <= String.length c.text
    && String.equal word (String.sub c.text c.pos len)
  then begin
    c.pos <- c.pos + len;
    value
  end
  else fail c (Printf.sprintf "expected '%s'" word)

let hex4 c =
  if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | ch -> fail c (Printf.sprintf "bad hex digit '%c' in \\u escape" ch)
    in
    v := (!v * 16) + d;
    c.pos <- c.pos + 1
  done;
  !v

(* The end of the escape-free run starting at [i]: the first quote,
   backslash or control byte, or the end of [text]. *)
let rec run_end text i =
  if
    i < String.length text
    &&
    let ch = String.unsafe_get text i in
    ch <> '"' && ch <> '\\' && ch >= ' '
  then run_end text (i + 1)
  else i

(* One escape sequence, the cursor just past its backslash. *)
let add_escape c b =
  if at_end c then fail c "unterminated escape";
  let ch = peek c in
  c.pos <- c.pos + 1;
  match ch with
  | '"' | '\\' | '/' -> Buffer.add_char b ch
  | 'b' -> Buffer.add_char b '\b'
  | 'f' -> Buffer.add_char b '\012'
  | 'n' -> Buffer.add_char b '\n'
  | 'r' -> Buffer.add_char b '\r'
  | 't' -> Buffer.add_char b '\t'
  | 'u' ->
    let cp = hex4 c in
    (* UTF-8 encode; surrogate pairs are not combined (the emitter never
       produces them — it only escapes control characters, which are
       below U+0020) *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  | ch ->
    c.pos <- c.pos - 1;
    fail c (Printf.sprintf "bad escape '\\%c'" ch)

(* A string with no escape is one [String.sub]; otherwise each
   escape-free run is one [Buffer.add_substring]. *)
let parse_string c =
  expect c '"';
  let text = c.text in
  let stop = run_end text c.pos in
  if stop < String.length text && String.unsafe_get text stop = '"' then begin
    let s = String.sub text c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    s
  end
  else begin
    let b = Buffer.create (2 * (stop - c.pos) + 16) in
    let rec runs stop =
      Buffer.add_substring b text c.pos (stop - c.pos);
      c.pos <- stop;
      if at_end c then fail c "unterminated string";
      match peek c with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
        c.pos <- c.pos + 1;
        add_escape c b;
        runs (run_end text c.pos)
      | _ -> fail c "unescaped control character in string"
    in
    runs stop;
    Buffer.contents b
  end

let digits c =
  let d0 = c.pos in
  while match peek c with '0' .. '9' -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  if c.pos = d0 then fail c "malformed number"

let parse_number c =
  let start = c.pos in
  if peek c = '-' then c.pos <- c.pos + 1;
  digits c;
  let is_float = ref false in
  if peek c = '.' then begin
    is_float := true;
    c.pos <- c.pos + 1;
    digits c
  end;
  (match peek c with
  | 'e' | 'E' ->
    is_float := true;
    c.pos <- c.pos + 1;
    (match peek c with '+' | '-' -> c.pos <- c.pos + 1 | _ -> ());
    digits c
  | _ -> ());
  let repr = String.sub c.text start (c.pos - start) in
  if !is_float then Float (float_of_string repr)
  else
    match int_of_string_opt repr with
    | Some i -> Int i
    | None -> Float (float_of_string repr)

let rec parse_value c depth =
  skip_ws c;
  if at_end c then fail c "expected a value, found end of input";
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '[' ->
    open_container c depth;
    if peek c = ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else List (parse_items c depth [ parse_value c (depth + 1) ])
  | '{' ->
    open_container c depth;
    if peek c = '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else Obj (parse_fields c depth [ parse_field c depth ])
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

and open_container c depth =
  if depth >= max_depth then
    fail c (Printf.sprintf "nesting deeper than %d" max_depth);
  c.pos <- c.pos + 1;
  skip_ws c

and parse_items c depth acc =
  skip_ws c;
  if peek c = ',' then begin
    c.pos <- c.pos + 1;
    parse_items c depth (parse_value c (depth + 1) :: acc)
  end
  else begin
    expect c ']';
    List.rev acc
  end

and parse_field c depth =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  (key, parse_value c (depth + 1))

and parse_fields c depth acc =
  skip_ws c;
  if peek c = ',' then begin
    c.pos <- c.pos + 1;
    parse_fields c depth (parse_field c depth :: acc)
  end
  else begin
    expect c '}';
    List.rev acc
  end

let of_string text =
  let c = { text; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if not (at_end c) then fail c "trailing content after value";
    v
  with
  | v -> Ok v
  | exception Parse_fail (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)
  | exception Failure _ ->
    Error (Printf.sprintf "JSON parse error at offset %d: malformed number" c.pos)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
