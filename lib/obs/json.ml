(* ---- writer ---- *)

let string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else begin
    let s15 = Printf.sprintf "%.15g" x in
    if float_of_string s15 = x then s15 else Printf.sprintf "%.17g" x
  end

let bool = string_of_bool

let option render = function None -> "null" | Some x -> render x

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> string k ^ ":" ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

(* ---- reader ---- *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | Some v ->
        pos := !pos + 4;
        v
    | None -> fail "bad \\u escape"
  in
  let add_utf8 buf code =
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
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; incr pos
             | '\\' -> Buffer.add_char buf '\\'; incr pos
             | '/' -> Buffer.add_char buf '/'; incr pos
             | 'b' -> Buffer.add_char buf '\b'; incr pos
             | 'f' -> Buffer.add_char buf '\012'; incr pos
             | 'n' -> Buffer.add_char buf '\n'; incr pos
             | 'r' -> Buffer.add_char buf '\r'; incr pos
             | 't' -> Buffer.add_char buf '\t'; incr pos
             | 'u' ->
                 incr pos;
                 let hi = hex4 () in
                 if
                   hi >= 0xD800 && hi <= 0xDBFF && !pos + 2 <= n
                   && s.[!pos] = '\\'
                   && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let lo = hex4 () in
                   if lo >= 0xDC00 && lo <= 0xDFFF then
                     add_utf8 buf
                       (0x10000
                       + ((hi - 0xD800) lsl 10)
                       + (lo - 0xDC00))
                   else begin
                     add_utf8 buf hi;
                     add_utf8 buf lo
                   end
                 end
                 else add_utf8 buf hi
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_lit ())
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Array []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Array (items [])
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Object []
        end
        else begin
          let field () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            (k, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields (f :: acc)
            | Some '}' -> incr pos; List.rev (f :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Object (fields [])
        end
    | Some ('-' | '0' .. '9') -> Number (number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member v k =
  match v with Object fields -> List.assoc_opt k fields | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_number = function Number f -> Some f | _ -> None

let to_int = function
  | Number f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
      Some (int_of_float f)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function Array l -> Some l | _ -> None

let field conv v k = Option.bind (member v k) conv
let bool_field = field to_bool
let number_field = field to_number
let int_field = field to_int
let str_field = field to_str
let list_field = field to_list
