module Expr = Glc_logic.Expr
module Truth_table = Glc_logic.Truth_table

let pp_cases ~output_name ppf (r : Analyzer.result) =
  let arity = r.Analyzer.arity in
  Format.fprintf ppf "@[<v>%-*s %8s %8s %8s %9s %6s %6s %4s@," (max arity 5)
    "case" "Case_I" "High_O" "Var_O" "FOV_EST" "eq(1)" "eq(2)" "min";
  Array.iter
    (fun (c : Analyzer.case_stats) ->
      Format.fprintf ppf "%-*s %8d %8d %8d %9.4f %6s %6s %4s@," (max arity 5)
        (Truth_table.combination ~arity c.Analyzer.row)
        c.case_count c.high_count c.variations c.fov_est
        (if c.passes_fov then "pass" else "fail")
        (if c.passes_majority then "pass" else "fail")
        (if c.included then "*" else ""))
    r.Analyzer.cases;
  Format.fprintf ppf "(* = minterm of %s)@]" output_name

let pp_result ~output_name ppf (r : Analyzer.result) =
  Format.fprintf ppf "@[<v>%a@,@,%s = %a@,minimised: %s = %a@,PFoBE = %.2f%%@]"
    (pp_cases ~output_name) r output_name Expr.pp r.Analyzer.expr
    output_name Expr.pp
    (Analyzer.minimised_expr r)
    r.Analyzer.fitness

let pp_verification ppf (v : Verify.report) =
  let arity = Truth_table.arity v.Verify.expected in
  if v.Verify.verified then
    Format.fprintf ppf
      "@[<v>verified: extracted logic matches the expected truth table \
       (PFoBE %.2f%%)@]"
      v.Verify.fitness
  else
    Format.fprintf ppf
      "@[<v>NOT verified: %d wrong state(s): %s (PFoBE %.2f%%)@]"
      (List.length v.Verify.wrong_states)
      (String.concat ", "
         (List.map (Truth_table.combination ~arity) v.Verify.wrong_states))
      v.Verify.fitness

let result_to_string ~output_name r =
  Format.asprintf "%a" (pp_result ~output_name) r

module Json = struct
  let string = Glc_obs.Metrics.json_string

  let float = Glc_obs.Metrics.json_float

  let bool b = if b then "true" else "false"

  (* ---- minimal reader ---- *)

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
end
